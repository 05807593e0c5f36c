(* Self-timed micro-benchmark of the Flow fixpoint solver on a
   1000-component manifest. The old Analysis.paths-based taint rule was
   exponential on dense graphs; the solver must stay comfortably linear.
   Reports, gates nothing. Emits one JSON object; the committed record
   lives in BENCH_flow.json at the repo root (refresh with
   `dune exec bench/flow_bench.exe`). *)

open Lateral

let n = 1000

(* the harness's layered topology, with a sprinkling of network-facing
   sources and sep-hosted secret holders *)
let manifests =
  List.init n (fun i ->
      let name, connects = Harness.layered ~n i in
      Manifest.v ~name ~provides:[ "s" ] ~connects_to:connects
        ~network_facing:(i mod 97 = 0)
        ~substrate:(if i mod 100 = 50 then "sep" else "microkernel")
        ())

let () =
  ignore (Flow.analyze manifests) (* warm-up *);
  let runs = 10 in
  let times =
    List.init runs (fun _ -> Harness.time (fun () -> Flow.analyze manifests))
  in
  let r = Flow.analyze manifests in
  let mean = List.fold_left ( +. ) 0.0 times /. float_of_int runs in
  Harness.report "flow-solver"
    Lt_obs.Json.
      [ ("components", Int n); ("flow_edges", Int (List.length r.Flow.edges));
        ("leaks", Int (List.length r.Flow.leaks));
        ("taint_hits", Int (List.length r.Flow.taint_hits)); ("runs", Int runs);
        ("median_ms", Float (Harness.median times *. 1000.));
        ("mean_ms", Float (mean *. 1000.)) ]
    []
