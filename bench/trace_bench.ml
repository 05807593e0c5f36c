(* Self-timed micro-benchmark of tracing overhead on the hot path: the
   same Deploy.call workload (the cloud scenario's host -> enclave hop,
   a routed call that crosses a microkernel IPC and an SGX ecall) timed
   with no tracer installed and with a full tracer + metrics registry
   recording every span. The instrumentation is compiled in either way;
   uninstalled it costs one reference read per probe, so the overhead
   budget is tight: the committed record lives in BENCH_trace.json at
   the repo root (refresh with `dune exec bench/trace_bench.exe`) and
   the median overhead must stay below 10%. *)

open Lt_crypto
open Lateral

(* one CA key for every deployment: key generation dominates deployment
   build time and plays no part in the measured call path *)
let rng = Drbg.create 0xbe9cL

let ca = Rsa.generate ~bits:512 rng

let build_deployment () =
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:256 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let substrates = [ ("microkernel", mk); ("sgx", sgx) ] in
  let components =
    [ ( Manifest.v ~name:"host" ~provides:[ "submit" ] ~network_facing:true
          ~connects_to:[ Manifest.conn ~vetted:true "enclave" "ecall" ]
          ~substrate:"microkernel" (),
        fun ctx ~service:_ job ->
          match ctx.Deploy.call_out_typed ~target:"enclave" ~service:"ecall" job with
          | Ok r -> r
          | Error e -> failwith (App.render_call_error e) );
      ( Manifest.v ~name:"enclave" ~provides:[ "ecall" ] ~substrate:"sgx" (),
        fun _ctx ~service:_ job ->
          String.sub (Sha256.hex (Hmac.mac ~key:"bench" job)) 0 8 ) ]
  in
  match Deploy.deploy ~substrates components with
  | Ok d -> d
  | Error e -> failwith e

let calls_per_run = 250
let runs = 15
let repeats = 3 (* per-configuration repeats inside a pair; fastest wins *)

(* ~6 spans per call; size the ring to hold one run without eviction *)
let ring_capacity = 4096

let issue dep i =
  match
    Deploy.call dep ~caller:None ~target:"host" ~service:"submit"
      (Printf.sprintf "job-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith e

let warm_calls = 25

let time_run dep =
  (* steady state before the clock starts: warm calls fill the caches,
     interners and metric groups, and a full major collection pays off
     GC debt from setup that would otherwise be collected in slices
     inside the window *)
  for i = 1 to warm_calls do
    issue dep (-i)
  done;
  Gc.full_major ();
  let t0 = Sys.time () in
  for i = 1 to calls_per_run do
    issue dep i
  done;
  Sys.time () -. t0

let untraced_run dep () = time_run dep

let traced_run dep () =
  (* fresh tracer and registry per run: steady-state recording into a
     ring that never fills, which is the deployed configuration *)
  let tracer = Lt_obs.Trace.create ~capacity:ring_capacity () in
  let metrics = Lt_obs.Metrics.create () in
  Lt_obs.Trace.with_tracer tracer (fun () ->
      Lt_obs.Metrics.with_metrics metrics (fun () -> time_run dep))

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length xs / 2)

let () =
  (* warm-up both paths *)
  ignore (untraced_run (build_deployment ()) ());
  ignore (traced_run (build_deployment ()) ());
  (* Each timed run gets a fresh deployment: the simulated kernel keeps
     one client task per call, so a shared deployment would slow
     whichever configuration runs later. The workload is deterministic
     and the clock is CPU time, so machine noise only ever adds time —
     within a pair each configuration is measured [repeats] times
     (alternating order) and its fastest run wins; the reported overhead
     is the median of the per-pair ratios of those minima. *)
  let untraced = ref [] and traced = ref [] and ratios = ref [] in
  for i = 1 to runs do
    let u = ref infinity and t = ref infinity in
    for j = 1 to repeats do
      let du = build_deployment () and dt = build_deployment () in
      if (i + j) mod 2 = 0 then begin
        u := min !u (untraced_run du ());
        t := min !t (traced_run dt ())
      end
      else begin
        t := min !t (traced_run dt ());
        u := min !u (untraced_run du ())
      end
    done;
    untraced := !u :: !untraced;
    traced := !t :: !traced;
    ratios := (!t /. !u) :: !ratios
  done;
  let mu = median !untraced and mt = median !traced in
  let us_per_call t = t *. 1e6 /. float_of_int calls_per_run in
  let overhead_pct = 100.0 *. (median !ratios -. 1.0) in
  Printf.printf
    "{\"benchmark\":\"trace-overhead\",\"workload\":\"cloud host->enclave \
     Deploy.call\",\"calls_per_run\":%d,\"runs\":%d,\"repeats\":%d,\"untraced_median_us_per_call\":%.3f,\"traced_median_us_per_call\":%.3f,\"median_overhead_pct\":%.2f,\"budget_pct\":10.0}\n"
    calls_per_run runs repeats (us_per_call mu) (us_per_call mt) overhead_pct
