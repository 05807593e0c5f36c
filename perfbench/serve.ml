(* The request path: a long-lived mail session and the tenant-churn
   client loop, each one closed-loop client in one thread. *)

open Lateral
module World = Lt_world.World
module Digest64 = Lt_world.Digest64
module Drbg = Lt_crypto.Drbg
module Load = Lt_load.Load
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Scale = Lt_scale.Scale

let boot rng scenario =
  match Load.deploy_scenario rng scenario with
  | Ok d -> d
  | Error e ->
    raise (Control.Check_failed (Load.scenario_name scenario ^ " boot: " ^ e))

(* --- one long-lived session (mail-session) ----------------------------------- *)

type session = {
  lat_us : float array;  (* per request, in the order sent *)
  wall_s : float;
  words : float;
  failed : int;
  violations : int;
  digest : Digest64.t;   (* the world at the end of the session *)
}

(* [session ?tm dep ~boot ~mix ~requests] rewinds the deployment to
   [boot] and sends the scenario's own mix, drawn from a fresh [mix ()]
   stream, through untraced Deploy.call. *)
let session ?tm (dep : Load.deployed) ~boot ~mix ~requests =
  World.restore dep.Load.d_world boot;
  Gc.compact ();
  let rng = mix () in
  let lat = Array.make requests 0. in
  let failed = ref 0 in
  let w0 = Gc.minor_words () in
  let t_start = Measure.now_ns () in
  for i = 1 to requests do
    let target, service, payload = dep.Load.d_mix rng i in
    let t0 = Measure.now_ns () in
    (match
       Measure.span tm "deploy.call" (fun () ->
           Deploy.call dep.Load.d_deploy ~caller:None ~target ~service payload)
     with
     | Ok _ -> ()
     | Error _ -> incr failed);
    lat.(i - 1) <- Measure.since_us t0
  done;
  let wall_s = Measure.since_s t_start in
  let words = Gc.minor_words () -. w0 in
  { lat_us = lat;
    wall_s;
    words;
    failed = !failed;
    violations = List.length (Deploy.violations dep.Load.d_deploy);
    digest = World.digest dep.Load.d_world }

(* --- tenant-churn -------------------------------------------------------------

   The same public calls in the same order as Scale.run — World.restore,
   Gateway.submit, Deploy.call, World.fork per visit, shard-major — but
   with no tracer or metrics registry installed, so the loop can be
   timed per visit and checked against Scale.run's counts. *)

type shard = {
  dep : Load.deployed;
  template : World.snap;
  gate : Gateway.t;
  net : Net.t;
  entry : string;
  mutable tick : int;
}

(* Scale.run's set-up: the shard deployments and, per tenant, its
   snapshot slot, traffic stream and request count. *)
type pool = {
  cfg : Scale.config;
  master : Drbg.t;  (* tenant i's stream is [Drbg.substream master i] *)
  shards : shard array;
  snaps : World.snap array;
  rngs : Drbg.t array;
  issued : int array;
}

type churn = {
  visit_us : float array; (* one request per visit: the request latency *)
  c_wall_s : float;
  c_words : float;
  ok : int;
  degraded : int;
  throttled : int;
  errors : int;
  attempted : int;
}

(* A shard's admission edge: its own network, entry address and gateway,
   as Scale.run creates them for each run. *)
let edge (cfg : Scale.config) k =
  let net = Net.create () in
  let entry = Printf.sprintf "shard-%d" k in
  (match Net.register net entry with Ok () | Error `Duplicate_addr -> ());
  let gate =
    Gateway.create ~whitelist:[ entry ] ~tokens_per_tick:cfg.Scale.sc_admit_rate
      ~burst:cfg.Scale.sc_admit_burst
  in
  (gate, net, entry)

let boot_shard cfg deploy_rng k =
  let dep = boot (Drbg.substream deploy_rng k) cfg.Scale.sc_scenario in
  let gate, net, entry = edge cfg k in
  { dep; template = World.fork dep.Load.d_world; gate; net; entry; tick = 0 }

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [reset p] puts the pool back where Scale.run starts: fresh admission
   edges, every tenant on its shard's template with a fresh stream and
   no requests issued. The shard deployments stay booted. *)
let reset p =
  let nshards = Array.length p.shards in
  Array.iteri
    (fun k sh ->
      let gate, net, entry = edge p.cfg k in
      p.shards.(k) <- { sh with gate; net; entry; tick = 0 })
    p.shards;
  Array.iteri
    (fun i _ ->
      p.snaps.(i) <- p.shards.(i mod nshards).template;
      p.rngs.(i) <- Drbg.substream p.master i;
      p.issued.(i) <- 0)
    p.snaps

(* [pool cfg master] boots the shards from [Drbg.split master] and gives
   tenant i the stream [Drbg.substream master i], as Scale.run does. *)
let pool (cfg : Scale.config) master =
  let deploy_rng = Drbg.split master in
  let shards = Array.init cfg.Scale.sc_shards (boot_shard cfg deploy_rng) in
  let tenants = cfg.Scale.sc_tenants in
  let p =
    { cfg; master; shards;
      snaps = Array.make tenants shards.(0).template;
      rngs = Array.make tenants master;
      issued = Array.make tenants 0 }
  in
  reset p;
  p

let release p = Array.iter (fun sh -> Deploy.destroy sh.dep.Load.d_deploy) p.shards

(* [pass ?tm p] — one churn pass over a reset pool: every tenant's
   visits, shard-major, as Scale.run makes them. *)
let pass ?tm p =
  reset p;
  let { cfg; shards; snaps; rngs; issued; _ } = p in
  let nshards = cfg.Scale.sc_shards and tenants = cfg.Scale.sc_tenants in
  let per_tenant = cfg.Scale.sc_requests_per_tenant and batch = cfg.Scale.sc_batch in
  let rounds = (per_tenant + batch - 1) / batch in
  let lat = Array.make (tenants * rounds) 0. in
  let visits = ref 0 in
  let ok = ref 0 and degraded = ref 0 and throttled = ref 0 and errors = ref 0 in
  let visit i n =
    let sh = shards.(i mod nshards) in
    let world = sh.dep.Load.d_world in
    let tid = Printf.sprintf "tenant-%d" i in
    let t0 = Measure.now_ns () in
    Measure.span tm "visit.restore" (fun () -> World.restore world snaps.(i));
    for _ = 1 to n do
      issued.(i) <- issued.(i) + 1;
      let target, service, payload = sh.dep.Load.d_mix rngs.(i) issued.(i) in
      sh.tick <- sh.tick + 1;
      let admitted =
        Measure.span tm "visit.admit" (fun () ->
            match
              Gateway.submit sh.gate sh.net ~now:sh.tick ~src:tid ~dst:sh.entry
                payload
            with
            | Gateway.Rate_limited | Gateway.Blocked_destination -> false
            | Gateway.Forwarded ->
              ignore (Net.recv sh.net sh.entry);
              true)
      in
      if not admitted then incr throttled
      else
        match
          Measure.span tm "visit.call" (fun () ->
              Deploy.call sh.dep.Load.d_deploy ~caller:None ~target ~service
                payload)
        with
        | Ok reply when has_prefix ~prefix:"rate-limited" reply -> incr degraded
        | Ok _ -> incr ok
        | Error _ -> incr errors
    done;
    snaps.(i) <- Measure.span tm "visit.fork" (fun () -> World.fork world);
    lat.(!visits) <- Measure.since_us t0;
    incr visits
  in
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t_start = Measure.now_ns () in
  for _ = 1 to rounds do
    for k = 0 to nshards - 1 do
      let i = ref k in
      while !i < tenants do
        let n = min batch (per_tenant - issued.(!i)) in
        if n > 0 then visit !i n;
        i := !i + nshards
      done
    done
  done;
  let c_wall_s = Measure.since_s t_start in
  let c_words = Gc.minor_words () -. w0 in
  { visit_us = Array.sub lat 0 !visits;
    c_wall_s;
    c_words;
    ok = !ok;
    degraded = !degraded;
    throttled = !throttled;
    errors = !errors;
    attempted = tenants * per_tenant }

(* [churn ?tm cfg] — Scale.run's whole run: boot a pool from the seed,
   make one pass, tear it down. *)
let churn ?tm (cfg : Scale.config) =
  let p = pool cfg (Drbg.create (Int64.of_int cfg.Scale.sc_seed)) in
  let c = pass ?tm p in
  release p;
  c
