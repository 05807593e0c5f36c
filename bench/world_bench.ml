(* Self-timed micro-benchmark of the lt_world snapshot machinery and
   the deploy fast path. Three numbers, two of them gated:

   - fork: World.fork on the booted mail world (the biggest one: seven
     component slots over four substrates plus the storage harness).
     Budget <= 100us median — forking must stay ~3 orders of magnitude
     cheaper than the boot it replaces, or fork-per-case fuzzing loses
     its point.
   - restore: rewinding that world to its pristine fork after one
     request of damage (the steady-state per-case cost of a fuzz or
     chaos schedule). Reported, not gated: it is O(dirty) and the mix
     decides dirtiness.
   - call: an untraced Deploy.call_fast through a warm route to a leaf
     behaviour. Budget < 1us median — this is the zero-allocation path
     and anything near the slow pipeline means the guard regressed.

   Self-gating through the shared harness: exits 1 when a budget is
   blown. Not attached to @runtest; run with
   `dune exec bench/world_bench.exe`, record in BENCH_snap.json. *)

module Drbg = Lt_crypto.Drbg
module World = Lt_world.World
module Load = Lt_load.Load
open Lateral

let boot_mail () =
  match Load.deploy_scenario (Drbg.create 0x5eedL) Load.Mail with
  | Ok d -> d
  | Error e ->
    prerr_endline ("world_bench: mail failed to boot: " ^ e);
    exit 2

(* -- fork / restore ---------------------------------------------------- *)

let forks_per_run = 200
let runs = 9

let bench_fork w =
  Harness.median
    (List.init runs (fun _ ->
         Harness.us_per_op ~ops:forks_per_run
           (Harness.time (fun () ->
                for _ = 1 to forks_per_run do
                  ignore (Sys.opaque_identity (World.fork w))
                done))))

let restores_per_run = 50

let bench_restore (d : Load.deployed) =
  let w = d.Load.d_world in
  let pristine = World.fork w in
  let rng = Drbg.create 0xfeedL in
  let one_request i =
    let target, service, payload = d.Load.d_mix rng i in
    ignore (Deploy.call d.Load.d_deploy ~caller:None ~target ~service payload)
  in
  (* (request + restore) minus (request alone): the request dominates
     both loops, the difference is the rewind *)
  Harness.median
    (List.init runs (fun _ ->
         let t_mr =
           Harness.time (fun () ->
               for i = 1 to restores_per_run do
                 one_request i;
                 World.restore w pristine
               done)
         in
         let t_m =
           Harness.time (fun () ->
               for i = 1 to restores_per_run do
                 one_request i
               done)
         in
         World.restore w pristine;
         Float.max 0.0 (Harness.us_per_op ~ops:restores_per_run (t_mr -. t_m))))

(* -- untraced fast call ------------------------------------------------- *)

let calls_per_run = 200_000

let bench_call () =
  let m = Lt_hw.Machine.create ~dram_pages:256 () in
  let mk, _ =
    Substrate_kernel.make m (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let t =
    match
      Deploy.deploy
        ~substrates:[ ("microkernel", mk) ]
        [ ( Manifest.v ~name:"echo" ~provides:[ "ping" ] ~network_facing:true
              ~substrate:"microkernel" (),
            fun _ ~service:_ _ -> "pong" ) ]
    with
    | Ok t -> t
    | Error e ->
      prerr_endline ("world_bench: echo deploy failed: " ^ e);
      exit 2
  in
  let route =
    match Deploy.resolve t ~caller:None ~target:"echo" ~service:"ping" with
    | Some r -> r
    | None ->
      prerr_endline "world_bench: no route";
      exit 2
  in
  ignore (Deploy.call_fast t route "x");
  ignore (Deploy.call_fast t route "x");
  Harness.median
    (List.init runs (fun _ ->
         1e3
         *. Harness.us_per_op ~ops:calls_per_run
              (Harness.time (fun () ->
                   for _ = 1 to calls_per_run do
                     ignore (Sys.opaque_identity (Deploy.call_fast t route "x"))
                   done))))

let () =
  let d = ref None in
  let boot_ms = Harness.time (fun () -> d := Some (boot_mail ())) *. 1e3 in
  let d = Option.get !d in
  let fork_us = bench_fork d.Load.d_world in
  let restore_us = bench_restore d in
  let call_ns = bench_call () in
  let fork_budget_us = 100.0 and call_budget_ns = 1000.0 in
  Harness.report "world-snapshots"
    Lt_obs.Json.
      [ ("workload", Str "mail world fork/restore + untraced echo call_fast");
        ("boot_ms", Float boot_ms); ("fork_median_us", Float fork_us);
        ("fork_budget_us", Float fork_budget_us);
        ("restore_median_us", Float restore_us);
        ("fast_call_median_ns", Float call_ns);
        ("fast_call_budget_ns", Float call_budget_ns);
        ("forks_per_boot", Float (boot_ms *. 1e3 /. Float.max fork_us 0.01)) ]
    [ Harness.at_most "fork_median_us" fork_us fork_budget_us;
      Harness.at_most "fast_call_median_ns" call_ns call_budget_ns ]
