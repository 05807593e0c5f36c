(* Self-timed micro-benchmark of the resilience layer's fast path: the
   same traced Deploy.call workload as trace_bench (the harness's cloud
   host -> enclave hop, a routed call crossing a microkernel IPC and an
   SGX ecall), timed bare and wrapped in Supervisor.call with every
   component healthy — so the wrapper pays only its route lookup,
   closed-breaker check and deadline bookkeeping, never a retry or a
   restart. The committed record lives in BENCH_resil.json at the repo
   root (refresh with `dune exec bench/resil_bench.exe`); the run exits 1
   when the median overhead is over 5% of the traced baseline. The same
   run also reports the median supervised recovery cost in simulated
   ticks: crash the enclave, issue one hardened call, and count ambient
   ticks until the reply (restart cost + backoff + the retried
   crossing). *)

module Supervisor = Lt_resil.Supervisor

let calls_per_run = 250
let runs = 15
let repeats = 3 (* per-configuration repeats inside a pair; fastest wins *)
let warm_calls = 25
let budget_pct = 5.0
let recovery_cycles = 31

let issue_supervised sup i =
  match
    Supervisor.call sup ~caller:None ~target:"host" ~service:"submit"
      (Printf.sprintf "job-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith (Lateral.App.render_call_error e)

(* both configurations run fully traced: the budget is the cost of the
   supervisor wrapper, not of observability (that is BENCH_trace's) *)
let run issue =
  Harness.traced (fun () ->
      Harness.timed_loop ~warm:warm_calls ~calls:calls_per_run issue)

(* ambient ticks from killing the enclave to the next served reply:
   heal (restart cost) + backoff + the successful retry's crossing *)
let measure_recovery () =
  let sup =
    Supervisor.create ~seed:11L (Harness.cloud_deployment ())
  in
  Harness.traced (fun () ->
      Harness.median
        (List.init recovery_cycles (fun i ->
             (match Supervisor.crash sup "enclave" with
              | Ok () -> ()
              | Error e -> failwith e);
             let t0 = Lt_obs.Trace.ambient_now () in
             issue_supervised sup (i + 1);
             Lt_obs.Trace.ambient_now () - t0)))

let () =
  let baseline, supervised, ratio =
    Harness.alternate ~runs ~repeats
      (fun () ->
        let dep = Harness.cloud_deployment () in
        fun () -> run (Harness.cloud_call dep))
      (fun () ->
        let dep = Harness.cloud_deployment () in
        fun () -> run (issue_supervised (Supervisor.create ~seed:7L dep)))
  in
  let us = Harness.us_per_op ~ops:calls_per_run in
  let overhead_pct = 100.0 *. (ratio -. 1.0) in
  let recovery_ticks = measure_recovery () in
  Harness.report "resil-overhead"
    Lt_obs.Json.
      [ ("workload", Str "cloud host->enclave Deploy.call, traced");
        ("calls_per_run", Int calls_per_run); ("runs", Int runs);
        ("repeats", Int repeats);
        ("baseline_median_us_per_call", Float (us baseline));
        ("supervised_median_us_per_call", Float (us supervised));
        ("median_overhead_pct", Float overhead_pct);
        ("budget_pct", Float budget_pct);
        ("recovery_cycles", Int recovery_cycles);
        ("median_recovery_ticks", Int recovery_ticks) ]
    [ Harness.at_most "median_overhead_pct" overhead_pct budget_pct ]
