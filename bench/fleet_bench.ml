(* Self-timed micro-benchmark of the fleet layer: the cost of going
   multi-machine. A Fleet.call routes one request over the owning
   host's attested channel — two AEAD records, the mailbox hop, the
   agent dispatch and the local Deploy.call on the far side — and is
   timed against the same four-component app deployed on a single
   machine and called directly. The committed record lives in
   BENCH_fleet.json at the repo root (refresh with
   `dune exec bench/fleet_bench.exe`); the run exits 1 when the median
   fleet-call overhead is over 20x the local baseline.

   The same run also gates the recovery-time distribution the chaos
   harness reports: two seeded machine-kill + asymmetric-partition
   runs, pooling every completed failover's tick count (re-attested
   handshake + re-placement + backoff), against a 100-tick budget.
   Ticks are logical, so this gate is deterministic across machines. *)

open Lt_crypto
open Lateral
open Lt_fleet

let rng = Drbg.create 0xf1ee7L

let ca = Rsa.generate ~bits:512 rng

let all_substrates = [ "microkernel"; "sgx"; "sep" ]

let build_fleet () =
  let hosts =
    List.map
      (fun n -> Fleet.host_spec ~name:n ~substrates:all_substrates ())
      [ "host-1"; "host-2"; "host-3" ]
  in
  match
    Fleet.create ~seed:7L ~hosts
      ~components:(Fleet_chaos.scenario_components ()) ()
  with
  | Ok f ->
    (match Fleet.place_all f with
     | Ok () -> f
     | Error e -> failwith e)
  | Error e -> failwith e

(* the same app, single-machine: one deployment over the three
   substrate classes a fleet host offers *)
let build_local () =
  let machine = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make machine (Lt_kernel.Sched.Round_robin { quantum = 500 })
      ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"fleet-ra" ~ca_key:ca () in
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m3 rng ~device_id:"bench-sep" ~private_pages:16 in
  let substrates = [ ("microkernel", mk); ("sgx", sgx); ("sep", sep) ] in
  match Deploy.deploy ~substrates (Fleet_chaos.scenario_components ()) with
  | Ok d -> d
  | Error e -> failwith e

let calls_per_run = 200
let runs = 15
let repeats = 3 (* per-configuration repeats inside a pair; fastest wins *)
let warm_calls = 20

let issue_local dep i =
  match
    Deploy.call dep ~caller:None ~target:"gate" ~service:"ingress"
      (Printf.sprintf "req-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith e

let issue_fleet f i =
  match
    Fleet.call f ~target:"gate" ~service:"ingress" (Printf.sprintf "req-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith e

(* both configurations run fully traced, as the fleet always is *)
let run build issue () =
  Harness.traced (fun () ->
      Harness.timed_loop ~warm:warm_calls ~calls:calls_per_run (issue (build ())))

(* pooled recovery ticks over two seeded kill + asym-partition runs;
   logical ticks, so byte-stable across machines *)
let measure_recovery () =
  let one seed =
    let plan =
      { Fleet_chaos.kill_hosts = [ "host-2" ];
        partitions =
          [ { Fleet_chaos.pt_host = "host-1"; pt_from = 10; pt_heal = 25;
              pt_asym = true } ] }
    in
    match Fleet_chaos.run ~plan ~hosts:3 ~requests:40 ~seed () with
    | Ok (r, _) -> r.Fleet_chaos.fc_recovery_ticks
    | Error e -> failwith e
  in
  let ticks = one 5 @ one 13 in
  if ticks = [] then failwith "no failovers completed";
  (List.length ticks, Harness.median ticks)

let () =
  let local, fleet, overhead =
    Harness.alternate ~runs ~repeats
      (fun () -> run build_local issue_local)
      (fun () -> run build_fleet issue_fleet)
  in
  let us = Harness.us_per_op ~ops:calls_per_run in
  let overhead_budget = 20.0 in
  let failovers, recovery_ticks = measure_recovery () in
  let recovery_budget = 100 in
  Harness.report "fleet-overhead"
    Lt_obs.Json.
      [ ( "workload",
          Str "gate.ingress via attested channel vs local Deploy.call, traced" );
        ("calls_per_run", Int calls_per_run); ("runs", Int runs);
        ("repeats", Int repeats); ("local_median_us_per_call", Float (us local));
        ("fleet_median_us_per_call", Float (us fleet));
        ("median_overhead_x", Float overhead);
        ("overhead_budget_x", Float overhead_budget);
        ("failovers", Int failovers);
        ("median_recovery_ticks", Int recovery_ticks);
        ("recovery_budget_ticks", Int recovery_budget) ]
    [ Harness.at_most "median_overhead_x" overhead overhead_budget;
      Harness.at_most "median_recovery_ticks" (float_of_int recovery_ticks)
        (float_of_int recovery_budget) ]
