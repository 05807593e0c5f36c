(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (NOTES.md says why each was chosen):
     mail-session   one booted mail world, one long closed-loop session
     tenant-churn   Scale.run's visit loop over 1,000 meter tenants

   With --trace 0 the run is timed with no timers installed and reports
   the end-to-end metrics. With --trace 1 the same seed runs timed, then
   again with the benchmark's per-layer timers wrapped around each call
   into a layer, then the per-layer ladder; it reports the per-layer
   metrics and the tracing overhead. Every run checks its outputs; a
   failed check exits 1. The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

open Lateral
module World = Lt_world.World
module Digest64 = Lt_world.Digest64
module Drbg = Lt_crypto.Drbg
module Load = Lt_load.Load
module Scale = Lt_scale.Scale

(* mail-session: requests per session. The session length is part of
   the workload: per-request cost grows with the requests before it. *)
let mail_requests = 3000
let warmup_requests = 200

(* tenant-churn: Scale.run's shape, one request per visit, two visits
   per tenant, the default admission policy *)
let churn_config ~seed ~tenants =
  { Scale.default with
    Scale.sc_scenario = Load.Meter;
    sc_tenants = tenants;
    sc_shards = 4;
    sc_requests_per_tenant = 2;
    sc_batch = 1;
    sc_seed = seed }

(* 1,000 tenants make a pass short (about 0.4 s), so about 90 passes fit
   in a 40 s run and the per-pass figures rest on many passes; NOTES.md
   has the measurements behind the choice. *)
let churn_tenants = 1_000
let churn_check_tenants = 200  (* reduced config compared with Scale.run *)

(* Set-up time. Key generation searches for primes, so one boot can
   cost three times another from a different seed. A run therefore sets
   up once from each of many substreams of the seed and reports the
   median: 40 mail boots, or 10 churn pools of four shard boots and the
   tenant table. *)
let mail_setups = 40
let churn_setups = 10
let setup_stream = 1000  (* substreams setup_stream, setup_stream + 1, ... *)

(* a serving workload's own control plane: verdicts and deltas on its
   deployment's manifests, one identical chunk before each session or
   churn pass, on a compacted heap, so the chunks spread over the run.
   288 deltas are whole periods of the delta stream (Control.period) on
   both the 9-component mail fleet (72 deltas a period) and the
   4-component meter fleet (32), so every seed draws the same operations. *)
let chunk_verdicts = 40
let chunk_deltas = 288

type budget = Seconds of float | Reps of int

(* [repeat budget ~min f] runs [f] until the budget is spent, at least
   [min] times. *)
let repeat budget ~min f =
  let t0 = Measure.now_ns () in
  let rec go acc n =
    let more =
      match budget with
      | Seconds s -> n < min || Measure.since_s t0 < s
      | Reps r -> n < r
    in
    if more then go (f () :: acc) (n + 1) else List.rev acc
  in
  go [] 0

(* Median latency of the last tenth over the first tenth. *)
let drift lat =
  let n = Array.length lat in
  let t = max 1 (n / 10) in
  Measure.median_a (Array.sub lat (n - t) t) /. Measure.median_a (Array.sub lat 0 t)

type outcome = {
  setup_s : float list;
  rate : float list;         (* each repetition's requests / its wall time *)
  req_us : float array;
      (* per request: the floor over the run's identical repetitions *)
  req_p99 : float list;      (* each repetition's own p99 *)
  drift_x : float;
  words_per_req : float;
  verdict_ms : float array;  (* floor over repetitions *)
  delta_ms : float array;    (* floor over repetitions *)
  attempted : int;
  failed : int;
  refused : int;
  reps : int;                (* identical repetitions; a traced rerun repeats as many *)
  gc_minor : int;
  gc_major : int;
  heap_mb : float;
}

exception Check_failed = Control.Check_failed

let check cond what = if not cond then raise (Check_failed what)

(* [setup_times ~master n set_up release] — the wall time of [n] calls
   [set_up rng], each from its own substream of [master] and on a
   compacted heap, after one untimed warm-up call; [release] tears each
   one down, untimed. *)
let setup_times ~master n set_up release =
  release (set_up (Drbg.substream master (setup_stream - 1)));
  List.init n (fun j ->
      Gc.compact ();
      let r, t =
        Measure.time_s (fun () -> set_up (Drbg.substream master (setup_stream + j)))
      in
      release r;
      t)

let manifests_of (dep : Load.deployed) =
  List.filter_map (Deploy.manifest dep.Load.d_deploy)
    (Deploy.components dep.Load.d_deploy)

(* Every chunk draws the same delta stream, so chunks repeat each other. *)
let chunk ?tm ~master ~text manifests =
  Gc.compact ();
  Control.run ?tm ~rng:(Drbg.substream master 2) ~text ~expect:manifests
    ~verdicts:chunk_verdicts ~deltas:chunk_deltas ()

let control_ops cps =
  List.fold_left
    (fun a cp ->
      a + Array.length cp.Control.verdict_ms + Array.length cp.Control.delta_ms)
    0 cps

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* [finish ~runs ...] — [runs] are the per-request latencies of each
   identical repetition, in request order. *)
let finish ~setup_s ~rate ~runs ~words ~requests ~cps ~failed ~refused
    (gc0_minor, gc0_major) =
  let gc1_minor, gc1_major = gc_counts () in
  let req_us = Measure.floor runs in
  { setup_s; rate; req_us;
    req_p99 = List.map (fun a -> Measure.quantile a 0.99) runs;
    drift_x = drift req_us;
    words_per_req = words /. float_of_int requests;
    verdict_ms = Measure.floor (List.map (fun cp -> cp.Control.verdict_ms) cps);
    delta_ms = Measure.floor (List.map (fun cp -> cp.Control.delta_ms) cps);
    attempted = requests + control_ops cps;
    failed; refused;
    reps = List.length runs;
    gc_minor = gc1_minor - gc0_minor;
    gc_major = gc1_major - gc0_major;
    heap_mb = Measure.top_heap_mb () }

(* --- mail-session ------------------------------------------------------------ *)

type mail = {
  m_dep : Load.deployed;
  m_boot : World.snap;
  m_master : Drbg.t;
  m_setup : float list;
  mutable m_digest : Digest64.t option;  (* end state every session must reach *)
}

let mail_prepare ~seed =
  let master = Drbg.create (Int64.of_int seed) in
  let setup =
    setup_times ~master mail_setups
      (fun rng -> Serve.boot rng Load.Mail)
      (fun d -> Deploy.destroy d.Load.d_deploy)
  in
  let dep = Serve.boot (Drbg.substream master 0) Load.Mail in
  let boot = World.fork dep.Load.d_world in
  let mix () = Drbg.substream master 1 in
  ignore (Serve.session dep ~boot ~mix ~requests:warmup_requests);
  { m_dep = dep; m_boot = boot; m_master = master;
    m_setup = setup; m_digest = None }

let mail_measure ?tm ml budget =
  let gc0 = gc_counts () in
  let mix () = Drbg.substream ml.m_master 1 in
  let manifests = manifests_of ml.m_dep in
  let text = Manifest_file.to_text manifests in
  let reps =
    repeat budget ~min:3 (fun () ->
        let cp = chunk ?tm ~master:ml.m_master ~text manifests in
        (Serve.session ?tm ml.m_dep ~boot:ml.m_boot ~mix ~requests:mail_requests, cp))
  in
  let ss = List.map fst reps and cps = List.map snd reps in
  List.iter
    (fun (s : Serve.session) ->
      check (s.Serve.failed = 0)
        (Printf.sprintf "mail-session: %d replies were not Ok" s.Serve.failed);
      check (s.Serve.violations = 0) "mail-session: Deploy.violations is not empty";
      match ml.m_digest with
      | None -> ml.m_digest <- Some s.Serve.digest
      | Some d ->
        check (Int64.equal d s.Serve.digest)
          "mail-session: end-state World.digest differs between runs")
    ss;
  finish ~setup_s:ml.m_setup
    ~rate:
      (List.map (fun s -> float_of_int mail_requests /. s.Serve.wall_s) ss)
    ~runs:(List.map (fun s -> s.Serve.lat_us) ss)
    ~words:(List.fold_left (fun a s -> a +. s.Serve.words) 0. ss)
    ~requests:(mail_requests * List.length ss)
    ~cps ~failed:0 ~refused:0 gc0

(* --- tenant-churn -------------------------------------------------------------- *)

let churn_check_counts (c : Serve.churn) =
  check (c.Serve.errors = 0)
    (Printf.sprintf "tenant-churn: %d typed call errors" c.Serve.errors);
  check
    (c.Serve.ok + c.Serve.degraded + c.Serve.throttled + c.Serve.errors
     = c.Serve.attempted)
    "tenant-churn: ok + throttled + errors <> attempted"

(* The loop must count what Scale.run counts on the same seed and shape. *)
let churn_check_against_scale ~seed =
  let cfg = churn_config ~seed ~tenants:churn_check_tenants in
  let mine = Serve.churn cfg in
  churn_check_counts mine;
  match Scale.run cfg with
  | Error e -> raise (Check_failed ("Scale.run: " ^ e))
  | Ok r ->
    check
      (mine.Serve.ok = r.Scale.s_ok
       && mine.Serve.degraded = r.Scale.s_degraded
       && mine.Serve.throttled = r.Scale.s_throttled
       && mine.Serve.errors = r.Scale.s_errors)
      (Printf.sprintf
         "tenant-churn: loop counts ok %d/degraded %d/throttled %d differ from \
          Scale.run ok %d/degraded %d/throttled %d"
         mine.Serve.ok mine.Serve.degraded mine.Serve.throttled r.Scale.s_ok
         r.Scale.s_degraded r.Scale.s_throttled)

let churn_setup ~seed =
  let cfg = churn_config ~seed ~tenants:churn_tenants in
  setup_times ~master:(Drbg.create (Int64.of_int seed)) churn_setups
    (Serve.pool cfg) Serve.release

let churn_measure ?tm ~seed ~setup budget =
  let master = Drbg.create (Int64.of_int seed) in
  let meter = Serve.boot (Drbg.substream master 0) Load.Meter in
  let manifests = manifests_of meter in
  Deploy.destroy meter.Load.d_deploy;
  let text = Manifest_file.to_text manifests in
  let cfg = churn_config ~seed ~tenants:churn_tenants in
  (* one pool for the whole run, warmed up by an untimed pass; every
     pass resets it to Scale.run's starting state *)
  let p = Serve.pool cfg (Drbg.create (Int64.of_int seed)) in
  ignore (Serve.pass p);
  let gc0 = gc_counts () in
  let reps =
    repeat budget ~min:3 (fun () ->
        let cp = chunk ?tm ~master ~text manifests in
        (Serve.pass ?tm p, cp))
  in
  Serve.release p;
  let cs = List.map fst reps and cps = List.map snd reps in
  List.iter churn_check_counts cs;
  (* every pass starts from the same reset pool, so all count alike *)
  let c0 = List.hd cs in
  List.iter
    (fun (c : Serve.churn) ->
      check
        (c.Serve.ok = c0.Serve.ok && c.Serve.degraded = c0.Serve.degraded
         && c.Serve.throttled = c0.Serve.throttled)
        "tenant-churn: passes over the reset pool count differently")
    cs;
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  ( finish
      ~setup_s:setup
      ~rate:
        (List.map
           (fun c -> float_of_int c.Serve.attempted /. c.Serve.c_wall_s)
           cs)
      ~runs:(List.map (fun c -> c.Serve.visit_us) cs)
      ~words:(List.fold_left (fun a c -> a +. c.Serve.c_words) 0. cs)
      ~requests:(sum (fun c -> c.Serve.attempted))
      ~cps
      ~failed:(sum (fun c -> c.Serve.errors))
      ~refused:(sum (fun c -> c.Serve.throttled))
      gc0,
    cs )

(* --- metrics ----------------------------------------------------------------- *)

let end_to_end o =
  let m = Measure.metric in
  let floor = Printf.sprintf "floor of %d repetitions" o.reps in
  let pct name unit_ a p =
    let x = Measure.pct name unit_ a p in
    { x with Measure.m_note = x.Measure.m_note ^ ", " ^ floor }
  in
  let n = Array.length o.req_us in
  [ m "setup_s" "s" (Measure.median o.setup_s)
      ~note:
        (Printf.sprintf "median of %d set-ups, each from its own seed"
           (List.length o.setup_s));
    m "req_per_s" "1/s" (List.fold_left Float.max 0. o.rate)
      ~note:
        (Printf.sprintf "fastest of %d repetitions' requests / wall time, n=%d each"
           o.reps n);
    pct "req_p50_us" "us" o.req_us 0.50;
    m "req_p99_us" "us" (Measure.quantile (Array.of_list o.req_p99) 0.25)
      ~note:
        (Printf.sprintf
           "lower quartile of %d repetitions' own p99, n=%d beyond=%d each" o.reps n
           (Measure.beyond n 0.99));
    m "req_drift_x" "x" o.drift_x ~note:floor;
    m "words_per_req" "words" o.words_per_req;
    m "heap_peak_mb" "MiB" o.heap_mb;
    m "verdict_ms" "ms" (Measure.median_a o.verdict_ms)
      ~note:(Printf.sprintf "median of %d, %s" (Array.length o.verdict_ms) floor);
    pct "delta_p50_ms" "ms" o.delta_ms 0.50;
    pct "delta_p90_ms" "ms" o.delta_ms 0.90;
    m "ok_frac" "ratio"
      (float_of_int (o.attempted - o.failed - o.refused) /. float_of_int o.attempted)
      ~note:(Printf.sprintf "n=%d" o.attempted) ]

let fail_frac o =
  Measure.metric "fail_frac" "ratio"
    (float_of_int (o.failed + o.refused) /. float_of_int o.attempted)
    ~note:
      (Printf.sprintf "failed %d + refused %d of %d" o.failed o.refused o.attempted)

(* Traced minus timed, per end-to-end metric. Set-up time and the heap
   peak are whole-process figures the traced rerun does not repeat. *)
let overhead timed traced =
  List.filter_map
    (fun (a : Measure.metric) ->
      if List.mem a.Measure.m_name [ "setup_s"; "heap_peak_mb" ] then None
      else
        let b =
          List.find (fun (b : Measure.metric) -> b.Measure.m_name = a.Measure.m_name) traced
        in
        let d = b.Measure.m_value -. a.Measure.m_value in
        Some
          (Measure.metric ("overhead." ^ a.Measure.m_name) a.Measure.m_unit d
             ~note:
               (Printf.sprintf "traced - timed (%+.1f%%)"
                  (100. *. d /. a.Measure.m_value))))
    timed

let gc_metrics o =
  [ Measure.metric "gc.minor_collections" "count" (float_of_int o.gc_minor);
    Measure.metric "gc.major_collections" "count" (float_of_int o.gc_major) ]

(* --- the ladder ------------------------------------------------------------------ *)

let ladder ~seed ~visits =
  let master = Drbg.create (Int64.of_int seed) in
  let mix () = Drbg.substream master 1 in
  let mail = Serve.boot (Drbg.substream master 0) Load.Mail in
  let session dep ~boot ~requests =
    let s = Serve.session dep ~boot ~mix ~requests in
    check (s.Serve.failed = 0) "ladder: a session reply was not Ok"
  in
  let mail_boot = World.fork mail.Load.d_world in
  session mail ~boot:mail_boot ~requests:mail_requests;
  let mail_late = World.fork mail.Load.d_world in
  let meter = Serve.boot (Drbg.substream master 0) Load.Meter in
  let meter_boot = World.fork meter.Load.d_world in
  (* a tenant's whole life in tenant-churn: two polls *)
  session meter ~boot:meter_boot ~requests:2;
  let meter_late = World.fork meter.Load.d_world in
  let visit_tm, visit_pass =
    match visits with
    | Some v -> v
    | None ->
      let tm = Measure.layers () in
      let c = Serve.churn ~tm (churn_config ~seed ~tenants:churn_tenants) in
      (tm, c.Serve.visit_us)
  in
  let l =
    Ladder.edge_ladder mail ~payload:(Printf.sprintf "msg-%d") ~fresh:mail_boot
      ~late:mail_late
    @ Ladder.edge_ladder meter
        ~payload:(Printf.sprintf "customer=4711;kwh=%d")
        ~fresh:meter_boot ~late:meter_late
    @ Ladder.world_ladder "mail" mail ~boot:mail_boot ~mix
    @ Ladder.world_ladder "meter" meter ~boot:meter_boot ~mix
    @ Ladder.visit_metrics visit_tm visit_pass
    @ Ladder.gateway_ladder ()
    @ Ladder.vpfs_ladder ()
    @ Ladder.crypto_ladder master
    @ Ladder.control_ladder (Drbg.substream master 3)
  in
  Deploy.destroy mail.Load.d_deploy;
  Deploy.destroy meter.Load.d_deploy;
  l

(* --- main -------------------------------------------------------------------- *)

let workloads = [ "mail-session"; "tenant-churn" ]

let usage =
  "perfbench.exe --workload (mail-session|tenant-churn) --seed N --seconds S \
   --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and budget = Seconds (float_of_int !seconds) in
  (* [run ?tm budget] — one timed or traced run of the workload, plus
     what the ladder reuses from it *)
  let run : ?tm:Measure.layers -> budget -> outcome * (Measure.layers * float array) option =
    match !workload with
    | "mail-session" ->
      let ml = mail_prepare ~seed in
      fun ?tm b -> (mail_measure ?tm ml b, None)
    | _ ->
      churn_check_against_scale ~seed;
      let setup = churn_setup ~seed in
      fun ?tm b ->
        let o, passes = churn_measure ?tm ~seed ~setup b in
        let visit_us = Array.concat (List.map (fun c -> c.Serve.visit_us) passes) in
        (o, Option.map (fun tm -> (tm, visit_us)) tm)
  in
  try
    let timed, _ = run budget in
    let e2e = end_to_end timed in
    Measure.print_table (Printf.sprintf "%s seed %d: end-to-end, timed" !workload seed) e2e;
    if !trace = 0 then
      Measure.print_result ~correct:true ~attempted:timed.attempted
        ~failed:timed.failed e2e
    else begin
      let tm = Measure.layers () in
      let traced, visits = run ~tm (Reps timed.reps) in
      let e2e_traced = end_to_end traced in
      Measure.print_table "end-to-end, traced (same seed, same repetitions)" e2e_traced;
      Measure.print_layers "traced run" tm;
      let per_layer =
        ladder ~seed ~visits
        @ gc_metrics timed
        @ [ fail_frac timed ]
        @ overhead e2e e2e_traced
      in
      Measure.print_table "per-layer" per_layer;
      Measure.print_result ~correct:true
        ~attempted:(timed.attempted + traced.attempted)
        ~failed:(timed.failed + traced.failed) per_layer
    end
  with Check_failed what ->
    Printf.eprintf "perfbench: check failed: %s\n" what;
    exit 1
