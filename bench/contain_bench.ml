(* Self-timed micro-benchmark of the static blast-radius analysis and
   its incremental maintenance. Same 1000-component layered fleet as
   incr_bench, but with singleton protection domains and a restart
   policy on most components so the containment fixpoint has real work:
   channel edges everywhere, a sprinkling of sep islands, and one
   restart-policy toggle as the delta. Two self-gates, checked by the
   shared harness:
     - batch Contain.analyze must finish in <= 200ms median (exit 1),
     - the incremental contain re-verdict after a one-component delta
       must beat from-scratch by >= 20x (exit 1),
   and any divergence between the two exits 2. Emits one JSON object;
   the committed record lives in BENCH_contain.json at the repo root
   (refresh with `dune exec bench/contain_bench.exe`). *)

open Lateral

let n = 1000

let mk ?(restarting = true) i =
  let name, connects = Harness.layered ~n i in
  Manifest.v ~name ~provides:[ "s" ] ~connects_to:connects
    ~stateful:(i mod 13 = 0)
    ?restart:
      (if restarting && i mod 3 <> 0 then
         Some (Manifest.default_restart Manifest.On_failure)
       else None)
    ~substrate:(if i mod 100 = 50 then "sep" else "microkernel")
    ()

let manifests = List.init n (fun i -> mk i)

let () =
  ignore (Contain.analyze manifests) (* warm-up *);
  let batch_runs = 5 in
  let batch_ms =
    Harness.median
      (List.init batch_runs (fun _ ->
           Harness.time (fun () -> Contain.analyze manifests)))
    *. 1000.
  in
  (* incremental: re-verdict after one component's restart policy
     flips — a contain-relevant delta (crash impact changes) *)
  let deltas_applied, incr_times =
    Harness.delta_samples manifests (fun k -> mk ~restarting:(k mod 2 = 0) 999)
  in
  let incr_ms = Harness.median incr_times *. 1000. in
  let speedup = batch_ms /. incr_ms in
  let batch_budget_ms = 200.0 in
  let speedup_budget = 20.0 in
  let bounds =
    [ Harness.at_most "batch_median_ms" batch_ms batch_budget_ms;
      Harness.at_least "speedup" speedup speedup_budget ]
  in
  Harness.report "contain"
    Lt_obs.Json.
      [ ("components", Int n); ("delta", Str "toggle restart policy on c999");
        ("deltas_applied", Int deltas_applied); ("batch_runs", Int batch_runs);
        ("batch_median_ms", Float batch_ms);
        ("budget_batch_ms", Float batch_budget_ms);
        ("incr_median_ms", Float incr_ms); ("speedup", Float speedup);
        ("budget_min_speedup", Float speedup_budget);
        ("within_budget", Bool (Harness.within bounds)) ]
    bounds
