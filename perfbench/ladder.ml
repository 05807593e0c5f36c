(* The per-layer ladder: each layer's public functions called on their
   own, so a change to one layer shows up here under that layer's name.
   Every probe rewinds to a fork before its batch, so one probe never
   inherits the history another left behind. *)

open Lateral
module World = Lt_world.World
module Drbg = Lt_crypto.Drbg
module Hmac = Lt_crypto.Hmac
module Sha256 = Lt_crypto.Sha256
module Rsa = Lt_crypto.Rsa
module Load = Lt_load.Load
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Scale = Lt_scale.Scale
module Block = Lt_storage.Block
module Legacy_fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs

let m = Measure.metric

(* [per_call ~reps ~batch f] — medians over [reps] samples of the wall
   time (us) and allocated words of one call, each sample the mean of
   [batch] back-to-back calls [f k] with [k] counting calls. *)
let per_call ~reps ~batch f =
  let us = Array.make reps 0. and ws = Array.make reps 0. in
  let k = ref 0 in
  for r = 0 to reps - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Measure.now_ns () in
    for _ = 1 to batch do
      f !k;
      incr k
    done;
    us.(r) <- Measure.since_us t0 /. float_of_int batch;
    ws.(r) <- (Gc.minor_words () -. w0) /. float_of_int batch
  done;
  (Measure.median_a us, Measure.median_a ws)

let ok_or_fail what = function
  | Ok _ -> ()
  | Error e -> raise (Control.Check_failed (what ^ ": " ^ e))

(* Every manifest edge plus the scenario's external entries, as
   (caller, target, service); an external caller is named [ext]. *)
let edges (dep : Load.deployed) =
  let d = dep.Load.d_deploy in
  List.map (fun (t, s, _) -> (None, t, s)) dep.Load.d_routes
  @ List.concat_map
      (fun c ->
        match Deploy.manifest d c with
        | None -> []
        | Some man ->
          List.map
            (fun conn -> (Some c, conn.Manifest.target, conn.Manifest.service))
            man.Manifest.connects_to)
      (Deploy.components d)

let edge_calls = 200

(* [edge_ladder dep ~payload ~fresh ~late] — [edge_calls] Deploy.calls per
   edge from the [fresh] fork and again from the [late] one. *)
let edge_ladder (dep : Load.deployed) ~payload ~fresh ~late =
  List.concat_map
    (fun (caller, target, service) ->
      let base =
        Printf.sprintf "edge.%s.%s.%s"
          (Option.value caller ~default:"ext") target service
      in
      List.concat_map
        (fun (age, snap) ->
          World.restore dep.Load.d_world snap;
          let us, words =
            per_call ~reps:edge_calls ~batch:1 (fun k ->
                ok_or_fail base
                  (Deploy.call dep.Load.d_deploy ~caller ~target ~service
                     (payload k)))
          in
          [ m (Printf.sprintf "%s.%s_us" base age) "us" us
              ~note:(Printf.sprintf "median of %d" edge_calls);
            m (Printf.sprintf "%s.%s_words" base age) "words" words ])
        [ ("fresh", fresh); ("late", late) ])
    (edges dep)

(* World.fork and World.restore around one request, as a tenant visit
   uses them. *)
let world_ladder name (dep : Load.deployed) ~boot ~mix =
  let world = dep.Load.d_world in
  let reps = 200 in
  let fork_us = Array.make reps 0. and fork_w = Array.make reps 0.
  and restore_us = Array.make reps 0. in
  let rng = mix () in
  for r = 0 to reps - 1 do
    World.restore world boot;
    let target, service, payload = dep.Load.d_mix rng (r + 1) in
    ok_or_fail "world probe"
      (Deploy.call dep.Load.d_deploy ~caller:None ~target ~service payload);
    let w0 = Gc.minor_words () in
    let t0 = Measure.now_ns () in
    let snap = World.fork world in
    fork_us.(r) <- Measure.since_us t0;
    fork_w.(r) <- Gc.minor_words () -. w0;
    ignore (Sys.opaque_identity snap);
    let t1 = Measure.now_ns () in
    World.restore world boot;
    restore_us.(r) <- Measure.since_us t1
  done;
  let note = Printf.sprintf "median of %d" reps in
  [ m (Printf.sprintf "world.%s.fork_us" name) "us" (Measure.median_a fork_us) ~note;
    m (Printf.sprintf "world.%s.restore_us" name) "us"
      (Measure.median_a restore_us) ~note;
    m (Printf.sprintf "world.%s.fork_words" name) "words" (Measure.median_a fork_w) ]

(* The visit breakdown of a traced churn pass: the four named parts
   plus [other] add up to [total]. *)
let visit_metrics (tm : Measure.layers) visit_us =
  let visits = Array.length visit_us in
  let per part = Measure.layer_total_us tm part /. float_of_int visits in
  let total = Array.fold_left ( +. ) 0. visit_us /. float_of_int visits in
  let parts = [ "restore"; "admit"; "call"; "fork" ] in
  let named = List.map (fun p -> (p, per ("visit." ^ p))) parts in
  let other = total -. List.fold_left (fun a (_, v) -> a +. v) 0. named in
  let note = Printf.sprintf "mean over %d visits" visits in
  List.map (fun (p, v) -> m (Printf.sprintf "visit.%s_us" p) "us" v ~note) named
  @ [ m "visit.other_us" "us" other ~note; m "visit.total_us" "us" total ~note ]

let gateway_ladder () =
  let net = Net.create () in
  (match Net.register net "shard-0" with Ok () | Error `Duplicate_addr -> ());
  let gate =
    Gateway.create ~whitelist:[ "shard-0" ]
      ~tokens_per_tick:Scale.default.Scale.sc_admit_rate
      ~burst:Scale.default.Scale.sc_admit_burst
  in
  let us, _ =
    per_call ~reps:50 ~batch:200 (fun k ->
        match
          Gateway.submit gate net ~now:(k + 1) ~src:"tenant-0" ~dst:"shard-0"
            "poll"
        with
        | Gateway.Forwarded -> ignore (Net.recv net "shard-0")
        | Gateway.Rate_limited | Gateway.Blocked_destination -> ())
  in
  [ m "gateway.submit_us" "us" us ~note:"median of 50 x 200" ]

(* A standalone VPFS over the legacy FS, with mail payloads over 8
   rotating paths — the shape the mail scenario's storage writes. *)
let vpfs_ladder () =
  let fs = Legacy_fs.format (Block.create ~blocks:1024) in
  let v = Vpfs.create ~master_key:"mail-vpfs-master-key" fs in
  let path k = Printf.sprintf "/mail/%d" (k mod 8) in
  let write k =
    match Vpfs.write v (path k) (Printf.sprintf "mail(msg-%d)" k) with
    | Ok () -> ()
    | Error e ->
      raise (Control.Check_failed (Format.asprintf "vpfs write: %a" Vpfs.pp_error e))
  in
  for k = 0 to 15 do write k done;
  let reps = 400 in
  let wus, wwords = per_call ~reps ~batch:1 (fun k -> write (k + 16)) in
  let rus, _ =
    per_call ~reps ~batch:1 (fun k ->
        match Vpfs.read v (path k) with
        | Ok _ -> ()
        | Error e ->
          raise
            (Control.Check_failed (Format.asprintf "vpfs read: %a" Vpfs.pp_error e)))
  in
  let note = Printf.sprintf "median of %d" reps in
  [ m "vpfs.write_us" "us" wus ~note; m "vpfs.read_us" "us" rus ~note;
    m "vpfs.write_words" "words" wwords ]

let crypto_ladder master =
  let msg = "FETCH msg-1234" in
  let hmac_us, _ =
    per_call ~reps:50 ~batch:100 (fun _ ->
        ignore (Sys.opaque_identity (Hmac.mac ~key:"sep-held-key" msg)))
  in
  let block = String.make 64 'm' in
  let sha_us, _ =
    per_call ~reps:50 ~batch:100 (fun _ ->
        ignore (Sys.opaque_identity (Sha256.digest block)))
  in
  let keys = 7 in
  let keygen =
    List.init keys (fun k ->
        snd
          (Measure.time_s (fun () ->
               Rsa.generate ~bits:512 (Drbg.substream master (100 + k)))))
  in
  [ m "crypto.hmac_us" "us" hmac_us ~note:"median of 50 x 100, 14-byte message";
    m "crypto.sha256_us" "us" sha_us ~note:"median of 50 x 100, 64-byte block";
    m "crypto.rsa512_keygen_ms" "ms" (Measure.median keygen *. 1e3)
      ~note:(Printf.sprintf "median of %d keys" keys) ]

(* The static control plane on the 1,000-component fleet. *)
let control_ladder rng =
  let fleet = Control.fleet 1000 in
  let text = Manifest_file.to_text fleet in
  let reps = 3 in
  let med f =
    Measure.median (List.init reps (fun _ -> snd (Measure.time_s f))) *. 1e3
  in
  let note = Printf.sprintf "median of %d" reps in
  let parse_ms = med (fun () -> ignore (Control.parse text)) in
  let lint_ms = med (fun () -> ignore (Lint.run fleet)) in
  let flow_ms = med (fun () -> ignore (Flow.analyze fleet)) in
  let contain_ms = med (fun () -> ignore (Contain.analyze fleet)) in
  (* 25 operations, about six of each kind: every delta class at least
     five times *)
  let r = Control.run ~rng ~text ~expect:fleet ~verdicts:1 ~deltas:50 () in
  [ m "manifest_file.parse_ms" "ms" parse_ms ~note;
    m "lint.run_ms" "ms" lint_ms ~note;
    m "flow.analyze_ms" "ms" flow_ms ~note;
    m "contain.analyze_ms" "ms" contain_ms ~note ]
  @ List.map
      (fun cls ->
        let xs = ref [] in
        Array.iteri
          (fun i c -> if c = cls then xs := r.Control.delta_ms.(i) :: !xs)
          r.Control.delta_class;
        m (Printf.sprintf "check.apply.%s_ms" cls) "ms" (Measure.median !xs)
          ~note:(Printf.sprintf "median of %d" (List.length !xs)))
      Control.classes
