(* Self-timed macro-benchmark of the scale router: sustained
   requests/s of a full Scale.run at 100 / 1,000 / 10,000 tenants —
   the real engine end-to-end: shard boot, token-bucket admission,
   World.restore / World.fork around every tenant visit and the traced
   Deploy.call per request. Per-request work is pool-size independent
   by design (tenant state is a COW snapshot, the mix rng a
   substream), so the gates check exactly that: every configuration
   must clear an absolute requests/s floor, the sampled per-request
   p99 must stay under budget, and the 10,000-tenant throughput must
   retain at least 25% of the 100-tenant figure; the shared harness
   exits 1 at the first gate that fails. The committed record
   lives in BENCH_scale.json at the repo root (refresh with
   `dune exec bench/scale_bench.exe`). *)

open Lateral
module World = Lt_world.World
module Drbg = Lt_crypto.Drbg
module Load = Lt_load.Load
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Scale = Lt_scale.Scale

(* requests per tenant scales down as the pool grows so every
   configuration issues enough traffic (>= 6,400 requests) to measure
   sustained throughput rather than the fixed per-shard boot cost *)
let configurations = [ (100, 64); (1_000, 8); (10_000, 4) ]
let tenant_counts = List.map fst configurations
let batch = 4
let shards = 4
let runs = 5 (* full Scale.run repetitions per tenant count; fastest wins *)
let latency_visits = 500 (* sampled visits for the p99 estimate *)

let cfg (tenants, per_tenant) =
  { Scale.default with
    sc_tenants = tenants;
    sc_shards = shards;
    sc_requests_per_tenant = per_tenant;
    sc_batch = batch }

(* fastest-of-[runs] sustained throughput of the real engine *)
let throughput (tenants, per_tenant) =
  let c = cfg (tenants, per_tenant) in
  let one () =
    Harness.time (fun () ->
        match Scale.run c with
        | Ok r ->
          if not (Scale.contained r) then begin
            Printf.eprintf "scale_bench: uncontained run at %d tenants\n"
              tenants;
            exit 2
          end
        | Error e -> failwith e)
  in
  let best = List.fold_left min infinity (List.init runs (fun _ -> one ())) in
  float_of_int (tenants * per_tenant) /. best

(* Per-request latency, sampled one visit at a time on the router hot
   path: restore the tenant's snapshot, issue [batch] admitted
   requests through the gateway and the traced Deploy.call, fork the
   world back out. Each sample is one visit's wall time divided by
   [batch], so the fork/restore cost is amortised exactly as the
   router amortises it. The tenant pool is fully materialised (every
   tenant holds its own snapshot) and samples stride across it. *)
let latency_p99_us tenants =
  let master = Drbg.create 0x5ca1eL in
  let deploy_rng = Drbg.split master in
  let dep =
    match Load.deploy_scenario (Drbg.substream deploy_rng 0) Load.Mail with
    | Ok d -> d
    | Error e -> failwith e
  in
  let template = World.fork dep.Load.d_world in
  let snaps = Array.make tenants template in
  let issued = Array.make tenants 0 in
  let rngs = Array.init tenants (fun i -> Drbg.substream master i) in
  let net = Net.create () in
  let entry = "bench-shard" in
  (match Net.register net entry with
   | Ok () -> ()
   | Error `Duplicate_addr -> ());
  let gate =
    Gateway.create ~whitelist:[ entry ] ~tokens_per_tick:1.0 ~burst:32.0
  in
  let tick = ref 0 in
  let visit i =
    World.restore dep.Load.d_world snaps.(i);
    for _ = 1 to batch do
      issued.(i) <- issued.(i) + 1;
      let target, service, payload = dep.Load.d_mix rngs.(i) issued.(i) in
      incr tick;
      match
        Gateway.submit gate net ~now:!tick
          ~src:(Printf.sprintf "tenant-%d" i)
          ~dst:entry payload
      with
      | Gateway.Rate_limited | Gateway.Blocked_destination -> ()
      | Gateway.Forwarded ->
        ignore (Net.recv net entry);
        ignore
          (Deploy.call dep.Load.d_deploy ~caller:None ~target ~service payload)
    done;
    snaps.(i) <- World.fork dep.Load.d_world
  in
  visit 0 (* warm the caches before sampling *)
  ;
  let samples =
    Array.init latency_visits (fun s ->
        let i = s * 7919 mod tenants in
        Harness.us_per_op ~ops:batch (Harness.time (fun () -> visit i)))
  in
  Deploy.destroy dep.Load.d_deploy;
  Array.sort compare samples;
  let rank =
    min (latency_visits - 1)
      (int_of_float (ceil (0.99 *. float_of_int latency_visits)) - 1)
  in
  samples.(rank)

let () =
  let rps = List.map throughput configurations in
  let p99 = List.map latency_p99_us tenant_counts in
  let rps_floor = 1_000.0 in
  let p99_budget_us = 1_000.0 in
  let retention_floor = 0.25 in
  let retention = List.nth rps 2 /. List.nth rps 0 in
  let per_count suffix xs =
    List.map2 (fun n x -> (Printf.sprintf "tenants_%d_%s" n suffix, x))
      tenant_counts xs
  in
  let rps_k = per_count "rps" rps and p99_k = per_count "p99_us" p99 in
  Harness.report "scale-router"
    Lt_obs.Json.(
      [ ( "workload",
          Str
            "seeded closed-loop mail traffic, sharded tenant worlds behind \
             token-bucket admission, traced" );
        ( "requests_per_tenant",
          List (List.map (fun (_, r) -> Int r) configurations) );
        ("batch", Int batch); ("shards", Int shards); ("runs", Int runs);
        ("latency_visits", Int latency_visits) ]
      @ List.map (fun (k, x) -> (k, Float x)) (rps_k @ p99_k)
      @ [ ("retention_10000_vs_100_x", Float retention);
          ("rps_floor", Float rps_floor); ("p99_budget_us", Float p99_budget_us);
          ("retention_floor_x", Float retention_floor) ])
    (List.concat
       (List.map2
          (fun (kr, r) (kp, p) ->
            [ Harness.at_least kr r rps_floor; Harness.at_most kp p p99_budget_us ])
          rps_k p99_k)
    @ [ Harness.at_least "retention_10000_vs_100_x" retention retention_floor ])
