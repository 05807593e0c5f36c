(* Self-timed micro-benchmark of tracing overhead on the hot path: the
   harness's cloud host -> enclave Deploy.call workload (a routed call
   that crosses a microkernel IPC and an SGX ecall) timed with no tracer
   installed and with a full tracer + metrics registry recording every
   span. The instrumentation is compiled in either way; uninstalled it
   costs one reference read per probe, so the overhead budget is tight:
   the committed record lives in BENCH_trace.json at the repo root
   (refresh with `dune exec bench/trace_bench.exe`), and the run exits 1
   when the median overhead is over 10%. *)

let calls_per_run = 250
let runs = 15
let repeats = 3 (* per-configuration repeats inside a pair; fastest wins *)
let warm_calls = 25
let budget_pct = 10.0

let run dep =
  Harness.timed_loop ~warm:warm_calls ~calls:calls_per_run
    (Harness.cloud_call dep)

let () =
  (* Each timed run gets a fresh deployment: the simulated kernel keeps
     one client task per call, so a shared deployment would slow
     whichever configuration runs later. The reported overhead is the
     median of the per-pair ratios of the two configurations' minima. *)
  let untraced, traced, ratio =
    Harness.alternate ~runs ~repeats
      (fun () ->
        let dep = Harness.cloud_deployment () in
        fun () -> run dep)
      (fun () ->
        let dep = Harness.cloud_deployment () in
        fun () -> Harness.traced (fun () -> run dep))
  in
  let us = Harness.us_per_op ~ops:calls_per_run in
  let overhead_pct = 100.0 *. (ratio -. 1.0) in
  Harness.report "trace-overhead"
    Lt_obs.Json.
      [ ("workload", Str "cloud host->enclave Deploy.call");
        ("calls_per_run", Int calls_per_run); ("runs", Int runs);
        ("repeats", Int repeats);
        ("untraced_median_us_per_call", Float (us untraced));
        ("traced_median_us_per_call", Float (us traced));
        ("median_overhead_pct", Float overhead_pct);
        ("budget_pct", Float budget_pct) ]
    [ Harness.at_most "median_overhead_pct" overhead_pct budget_pct ]
