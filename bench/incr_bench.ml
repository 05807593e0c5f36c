(* Self-timed micro-benchmark of the incremental Check engine against
   the batch analysis it must stay byte-identical to. The scenario is a
   live control plane: a 1000-component fleet (flow_bench's layered
   topology) where one leaf component's CVE bit flips — the re-verdict
   must come from re-deriving the affected slice, not from re-analysing
   the fleet. Self-gating through the shared harness: exits 1 if the
   single-delta re-verdict is not at least 20x faster than a
   from-scratch Lint.run + Flow.analyze, and 2 if the incremental state
   diverged from batch. Emits one JSON object; the committed record
   lives in BENCH_incr.json at the repo root (refresh with
   `dune exec bench/incr_bench.exe`). *)

open Lateral

let n = 1000

let mk ?(vulnerable = false) i =
  let name, connects = Harness.layered ~n i in
  Manifest.v ~name ~provides:[ "s" ] ~connects_to:connects
    ~network_facing:(i mod 97 = 0) ~vulnerable
    ~substrate:(if i mod 100 = 50 then "sep" else "microkernel")
    ()

let manifests = List.init n (fun i -> mk i)

let () =
  (* batch: what a CI gate pays to re-check the fleet from scratch *)
  let batch () = (Lint.run manifests, Flow.analyze manifests) in
  ignore (batch ());
  let batch_runs = 5 in
  let batch_ms =
    Harness.median (List.init batch_runs (fun _ -> Harness.time batch)) *. 1000.
  in
  (* incremental: the same re-verdict after one component's CVE bit
     flips *)
  let deltas_applied, incr_times =
    Harness.delta_samples manifests (fun k -> mk ~vulnerable:(k mod 2 = 0) 999)
  in
  let incr_ms = Harness.median incr_times *. 1000. in
  let speedup = batch_ms /. incr_ms in
  let budget = 20.0 in
  let bounds = [ Harness.at_least "speedup" speedup budget ] in
  Harness.report "incr-check"
    Lt_obs.Json.
      [ ("components", Int n); ("delta", Str "toggle vulnerable on c999");
        ("deltas_applied", Int deltas_applied); ("batch_runs", Int batch_runs);
        ("batch_median_ms", Float batch_ms); ("incr_median_ms", Float incr_ms);
        ("speedup", Float speedup); ("budget_min_speedup", Float budget);
        ("within_budget", Bool (Harness.within bounds)) ]
    bounds
