open Lt_crypto
open Lateral
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Json = Lt_obs.Json
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs
module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

type scenario = Mail | Meter | Cloud

let all_scenarios = [ Mail; Meter; Cloud ]

let scenario_name = function Mail -> "mail" | Meter -> "meter" | Cloud -> "cloud"

let scenario_of_string = function
  | "mail" -> Ok Mail
  | "meter" -> Ok Meter
  | "cloud" -> Ok Cloud
  | s ->
    Error
      (Printf.sprintf "unknown scenario %S (known: %s)" s
         (String.concat ", " (List.map scenario_name all_scenarios)))

type fault_plan = { drop_pct : int; delay_pct : int; compromise_pct : int }

type report = {
  r_scenario : string;
  r_requests : int;
  r_seed : int;
  r_ok : int;
  r_degraded : int;
  r_errors : int;
  r_dropped : int;
  r_delayed : int;
  r_denied_probes : int;
  r_violations : int;
  r_substrates : string list;
  r_spans : int;
  r_span_ticks : int;
  r_counters : (string * int) list;
  r_histograms : (string * Metrics.summary) list;
}

(* --- the deployed scenarios ---------------------------------------------- *)

(* Each scenario deploys real components on real substrates; behaviours
   are small but exercise cross-substrate chains, substrate facilities
   (sealed state) and — for the meter — the network gateway, so a load
   run produces the span mix a real serving stack would. *)

type storage_harness = {
  st_crash_backend : int -> unit;
  st_backend_alive : unit -> bool;
  st_recover : unit -> (string, string) result;
  st_check : unit -> (unit, string) result;
  st_leaked : needle:string -> bool;
}

type deployed = {
  d_deploy : Deploy.t;
  (* the seeded request mix: picks an external entry point and payload *)
  d_mix : Drbg.t -> int -> string * string * string;
  (* an off-manifest probe for compromised-caller fault injection *)
  d_probe : string option * string * string;
  (* every external route with the components it transits, the unit of
     blast-radius accounting: a chaos run may only see a route fail when
     one of its own components is down *)
  d_routes : (string * string * string list) list;
  d_storage : storage_harness option;
  (* the whole booted deployment — substrates, control plane, scenario
     harness state — as one forkable world; chaos sessions fork it once
     and rewind per schedule instead of redeploying *)
  d_world : Lt_world.World.t;
}

(* a dead dependency cascades as a typed fault carrying the true origin
   (the supervisor may heal it and retry; the report blames the crashed
   component, not whichever caller tripped over it); any other
   downstream answer fails this request only — the caller stays healthy
   and the report gets an error line *)
let call_or_err ctx ~target ~service req =
  match ctx.Deploy.call_out_typed ~target ~service req with
  | Ok r -> r
  | Error (App.Crashed { target = origin; reason }) ->
    Substrate.dep_crashed ~origin reason
  | Error e ->
    Substrate.fail
      (Printf.sprintf "%s.%s: %s" target service (App.render_call_error e))

(* The mail scenario's storage component persists through a real VPFS
   (the §III-D trusted wrapper) layered over the crashable legacy FS in
   lib/storage. The harness hooks let a chaos driver lose power after an
   arbitrary number of backend block writes — including inside the
   4-write redo-journal window of one VPFS mutation — then remount, run
   crash recovery, and audit the survivors against a shadow oracle that
   records every acknowledged write. *)
let mail_master_key = "mail-vpfs-master-key"

let make_mail_storage () =
  let dev = Block.create ~blocks:1024 in
  let fs0 = Fs.format dev in
  let v0 = Vpfs.create ~master_key:mail_master_key fs0 in
  let lfs = ref fs0 and vpfs = ref v0 in
  (* the root digest a SEP/TPM would re-seal after every acknowledged
     write; open_recover checks against it, which is what defeats
     whole-FS rollback even across power cuts *)
  let trusted_root = ref (Vpfs.root v0) in
  let past_fs = ref [ fs0 ] in
  let oracle : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* paths with a write attempted since the last clean point; a power
     cut leaves them in doubt (retries against the dead backend can pile
     several up before anyone remounts) *)
  let pending = ref [] in
  let store path data =
    pending := path :: !pending;
    match Vpfs.write !vpfs path data with
    | Ok () ->
      trusted_root := Vpfs.root !vpfs;
      Hashtbl.replace oracle path data;
      pending := List.filter (fun q -> q <> path) !pending;
      Ok ()
    | Error e -> Error (Format.asprintf "%a" Vpfs.pp_error e)
  in
  let load path =
    match Vpfs.read !vpfs path with Ok v -> Some v | Error _ -> None
  in
  let harness =
    { st_crash_backend = (fun n -> Fs.crash_after_writes !lfs n);
      st_backend_alive =
        (fun () ->
          match Fs.read !lfs "/.probe" with
          | exception Fs.Crashed -> false
          | _ -> true);
      st_recover =
        (fun () ->
          match Fs.mount dev with
          | Error e -> Error (Format.asprintf "remount: %a" Fs.pp_error e)
          | Ok fs2 ->
            (match
               Vpfs.open_recover ~master_key:mail_master_key
                 ~expected_root:!trusted_root fs2
             with
             | Error e -> Error (Format.asprintf "recover: %a" Vpfs.pp_error e)
             | Ok (v2, status) ->
               lfs := fs2;
               vpfs := v2;
               past_fs := fs2 :: !past_fs;
               trusted_root := Vpfs.root v2;
               (* each mutation in flight around the power cut either
                  became durable (its journal record survived, so
                  recovery rolled it forward) or vanished entirely;
                  whichever way each went is now the truth the oracle
                  tracks *)
               List.iter
                 (fun path ->
                   match Vpfs.read v2 path with
                   | Ok now -> Hashtbl.replace oracle path now
                   | Error _ -> Hashtbl.remove oracle path)
                 (List.sort_uniq Stdlib.compare !pending);
               pending := [];
               Ok (match status with `Clean -> "clean" | `Recovered -> "recovered")));
      st_check =
        (fun () ->
          let got = List.sort Stdlib.compare (Vpfs.list !vpfs) in
          let want =
            Hashtbl.fold (fun k _ acc -> k :: acc) oracle []
            |> List.sort Stdlib.compare
          in
          if got <> want then
            Error
              (Printf.sprintf "paths diverge: vpfs [%s] vs oracle [%s]"
                 (String.concat "; " got) (String.concat "; " want))
          else
            List.fold_left
              (fun acc path ->
                match acc with
                | Error _ -> acc
                | Ok () -> (
                  let expect = Hashtbl.find oracle path in
                  match Vpfs.read !vpfs path with
                  | Ok data when data = expect -> Ok ()
                  | Ok data ->
                    Error (Printf.sprintf "%s: got %S, oracle %S" path data expect)
                  | Error e ->
                    Error (Format.asprintf "%s: %a" path Vpfs.pp_error e)))
              (Ok ()) want);
      st_leaked =
        (fun ~needle ->
          (* every byte the legacy stack ever saw, across remounts: the
             wrapper must never have handed it plaintext *)
          List.exists (fun fs -> Fs.observed_contains fs ~needle) !past_fs) }
  in
  (* everything the closures above mutate, as one world layer: the live
     FS/VPFS instances (which carry the block device), the handles
     themselves, the trusted root, the oracle and the in-doubt list *)
  let layer =
    Snap.make ~name:"mail:storage-harness"
      ~take:(fun () ->
        Snap.save_refs
          [ (fun () -> Fs.take_snapshot !lfs);
            (fun () -> Vpfs.take_snapshot !vpfs);
            (fun () -> Snap.save_ref lfs);
            (fun () -> Snap.save_ref vpfs);
            (fun () -> Snap.save_ref trusted_root);
            (fun () -> Snap.save_ref past_fs);
            (fun () -> Snap.save_hashtbl oracle);
            (fun () -> Snap.save_ref pending) ])
      ~digest:(fun () ->
        let d = Fs.state_digest !lfs in
        let d = D64.combine d (Vpfs.state_digest !vpfs) in
        let d = D64.string d !trusted_root in
        let d = D64.int d (List.length !past_fs) in
        let d =
          Snap.digest_hashtbl ~key:(fun k -> k) ~value:(fun v -> v) oracle d
        in
        D64.list D64.string d (List.sort Stdlib.compare !pending))
  in
  (harness, store, load, layer)

(* mail: the Figure 1 slice as a live deployment. ui and composer on the
   microkernel, the protocol/content handlers in SGX enclaves, the
   keystore on the SEP — one show request crosses three substrates. *)
let deploy_mail rng =
  let ca = Rsa.generate ~bits:512 rng in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m3 rng ~device_id:"mail-sep" ~private_pages:4 in
  let substrates = [ ("microkernel", mk); ("sgx", sgx); ("sep", sep) ] in
  let storage_h, st_store, st_load, storage_layer = make_mail_storage () in
  let slot = ref 0 in
  let on_failure = Manifest.default_restart Manifest.On_failure in
  let always = Manifest.default_restart Manifest.Always in
  let components =
    [ ( Manifest.v ~name:"ui" ~provides:[ "show"; "compose" ]
          ~connects_to:
            [ Manifest.conn "imap" "fetch"; Manifest.conn "renderer" "render";
              Manifest.conn "composer" "compose" ]
          ~network_facing:true ~substrate:"microkernel" ~size_loc:6000
          ~restart:always (),
        fun ctx ~service req ->
          match service with
          | "show" ->
            let mail = call_or_err ctx ~target:"imap" ~service:"fetch" req in
            call_or_err ctx ~target:"renderer" ~service:"render" mail
          | _ -> call_or_err ctx ~target:"composer" ~service:"compose" req );
      ( Manifest.v ~name:"imap" ~provides:[ "fetch" ]
          ~connects_to:
            [ Manifest.conn "tls" "transmit"; Manifest.conn "storage" "store" ]
          ~substrate:"sgx" ~size_loc:8000 ~vulnerable:true ~restart:on_failure (),
        fun ctx ~service:_ req ->
          let _receipt = call_or_err ctx ~target:"tls" ~service:"transmit" ("FETCH " ^ req) in
          let body = "mail(" ^ req ^ ")" in
          let _ = call_or_err ctx ~target:"storage" ~service:"store" body in
          body );
      ( Manifest.v ~name:"smtp" ~provides:[ "send" ]
          ~connects_to:[ Manifest.conn "tls" "transmit" ]
          ~substrate:"sgx" ~size_loc:4000 ~vulnerable:true ~restart:on_failure (),
        fun ctx ~service:_ req ->
          call_or_err ctx ~target:"tls" ~service:"transmit" ("SEND " ^ req) );
      ( Manifest.v ~name:"tls" ~provides:[ "transmit" ]
          ~connects_to:[ Manifest.conn "keystore" "sign" ]
          ~substrate:"sgx" ~size_loc:3000 ~restart:on_failure (),
        fun ctx ~service:_ req ->
          let signature = call_or_err ctx ~target:"keystore" ~service:"sign" req in
          Printf.sprintf "sent(%s,sig=%s)" req signature );
      ( Manifest.v ~name:"keystore" ~provides:[ "sign" ] ~substrate:"sep"
          ~size_loc:800 ~stateful:true ~restart:on_failure (),
        fun ctx ~service:_ req ->
          let key =
            match ctx.Deploy.facilities.Substrate.f_load ~key:"k" with
            | Some k -> k
            | None ->
              ctx.Deploy.facilities.Substrate.f_store ~key:"k" "sep-held-key";
              "sep-held-key"
          in
          String.sub (Sha256.hex (Hmac.mac ~key req)) 0 8 );
      ( Manifest.v ~name:"renderer" ~provides:[ "render" ] ~substrate:"sgx"
          ~size_loc:25000 ~vulnerable:true ~restart:always (),
        fun _ctx ~service:_ req -> "render(" ^ req ^ ")" );
      ( Manifest.v ~name:"composer" ~provides:[ "compose" ]
          ~connects_to:[ Manifest.conn "smtp" "send" ]
          ~substrate:"microkernel" ~size_loc:5000 ~restart:on_failure (),
        fun ctx ~service:_ req ->
          call_or_err ctx ~target:"smtp" ~service:"send" req );
      ( Manifest.v ~name:"storage" ~provides:[ "store"; "load" ]
          ~connects_to:[ Manifest.conn ~vetted:true "legacyfs" "io" ]
          ~substrate:"microkernel" ~size_loc:2500 ~stateful:true
          ~restart:on_failure (),
        fun ctx ~service req ->
          match service with
          | "store" ->
            ctx.Deploy.facilities.Substrate.f_store ~key:"latest" req;
            (* journal the body through the VPFS wrapper before telling
               the legacy stack; a power cut between the two loses the
               ack, never an acknowledged write *)
            incr slot;
            let path = Printf.sprintf "/mail/%d" (!slot mod 8) in
            (match st_store path req with
             | Ok () -> ()
             | Error e -> Substrate.fail ("vpfs: " ^ e));
            call_or_err ctx ~target:"legacyfs" ~service:"io" ("W:" ^ req)
          | _ ->
            (match ctx.Deploy.facilities.Substrate.f_load ~key:"latest" with
             | Some v -> v
             | None ->
               (match st_load (Printf.sprintf "/mail/%d" (!slot mod 8)) with
                | Some v -> v
                | None -> call_or_err ctx ~target:"legacyfs" ~service:"io" "R:latest")) );
      ( Manifest.v ~name:"legacyfs" ~provides:[ "io" ] ~substrate:"microkernel"
          ~size_loc:30000 ~vulnerable:true ~restart:always (),
        fun _ctx ~service:_ req -> "fs-ack(" ^ req ^ ")" ) ]
  in
  match Deploy.deploy ~substrates components with
  | Error e -> Error ("mail deployment: " ^ e)
  | Ok d ->
    let harness_layer =
      Snap.make ~name:"mail:harness"
        ~take:(fun () -> Snap.save_ref slot)
        ~digest:(fun () -> D64.int D64.basis !slot)
    in
    Ok
      { d_deploy = d;
        d_world = Deploy.world ~extra:[ storage_layer; harness_layer ] d;
        d_mix =
          (fun rng i ->
            if Drbg.int rng 100 < 60 then
              ("ui", "show", Printf.sprintf "msg-%d" i)
            else ("ui", "compose", Printf.sprintf "draft-%d" i));
        d_probe = (Some "renderer", "keystore", "sign");
        d_routes =
          [ ("ui", "show",
             [ "ui"; "imap"; "tls"; "keystore"; "storage"; "legacyfs"; "renderer" ]);
            ("ui", "compose", [ "ui"; "composer"; "smtp"; "tls"; "keystore" ]) ];
        d_storage = Some storage_h }

(* meter: the Figure 3 appliance under sustained polling. The reading
   is produced inside the TrustZone secure world, leaves the appliance
   through the token-bucket gateway (the only NIC holder), and lands in
   the utility's SGX anonymizer. Sustained load overruns the bucket, so
   rate-limiting shows up in the report as degraded requests. *)
let deploy_meter rng =
  let ca = Rsa.generate ~bits:512 rng in
  let tz_vendor = Rsa.generate ~bits:512 rng in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"meter-key"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  let image = Lt_tpm.Boot.sign_stage tz_vendor ~name:"tz-os" "meter-secure-os-v1" in
  match
    Substrate_trustzone.make m2 ~vendor:tz_vendor.Rsa.pub ~image
      ~device_id:"meter-0001" ~device_key_name:"meter-key" ~secure_pages:4
  with
  | Error e -> Error ("meter deployment: trustzone boot: " ^ e)
  | Ok (tz, _) ->
    let m3 = Lt_hw.Machine.create ~dram_pages:128 () in
    let sgx, _ = Substrate_sgx.make m3 rng ~ca_name:"intel" ~ca_key:ca () in
    let substrates = [ ("microkernel", mk); ("trustzone", tz); ("sgx", sgx) ] in
    let net = Net.create () in
    (* fresh net: these cannot collide *)
    List.iter
      (fun a -> match Net.register net a with Ok () | Error `Duplicate_addr -> ())
      [ "collector"; "utility" ];
    let gw = Gateway.create ~whitelist:[ "utility" ] ~tokens_per_tick:0.5 ~burst:5.0 in
    let poll_tick = ref 0 in
    let components =
      [ ( Manifest.v ~name:"collector" ~provides:[ "poll" ]
            ~connects_to:
              [ Manifest.conn "meter" "read"; Manifest.conn "utility" "submit" ]
            ~network_facing:true ~substrate:"microkernel" ~size_loc:3000
            ~restart:(Manifest.default_restart Manifest.Always) (),
          fun ctx ~service:_ _req ->
            let reading = call_or_err ctx ~target:"meter" ~service:"read" "" in
            incr poll_tick;
            match
              Gateway.submit gw net ~now:!poll_tick ~src:"collector" ~dst:"utility"
                reading
            with
            | Gateway.Blocked_destination ->
              Substrate.fail "gateway blocked the utility"
            | Gateway.Rate_limited -> "rate-limited:" ^ reading
            | Gateway.Forwarded ->
              (match Net.recv net "utility" with
               | None -> Substrate.fail "reading lost in transit"
               | Some p ->
                 call_or_err ctx ~target:"utility" ~service:"submit" p.Net.payload) );
        ( Manifest.v ~name:"meter" ~provides:[ "read" ] ~substrate:"trustzone"
            ~size_loc:2000 ~stateful:true
            ~restart:(Manifest.default_restart Manifest.Always) (),
          fun ctx ~service:_ _req ->
            let n =
              match ctx.Deploy.facilities.Substrate.f_load ~key:"kwh" with
              | Some v -> int_of_string v + 3
              | None -> 3
            in
            ctx.Deploy.facilities.Substrate.f_store ~key:"kwh" (string_of_int n);
            Printf.sprintf "customer=4711;kwh=%d" n );
        ( Manifest.v ~name:"utility" ~provides:[ "submit" ]
            ~connects_to:[ Manifest.conn ~vetted:true "anonymizer" "ingest" ]
            ~substrate:"microkernel" ~size_loc:9000
            ~restart:(Manifest.default_restart Manifest.On_failure) (),
          fun ctx ~service:_ reading ->
            call_or_err ctx ~target:"anonymizer" ~service:"ingest" reading );
        ( Manifest.v ~name:"anonymizer" ~provides:[ "ingest" ] ~substrate:"sgx"
            ~size_loc:1200 ~stateful:true
            ~restart:(Manifest.default_restart Manifest.On_failure) (),
          fun ctx ~service:_ reading ->
            (* strip the customer id, bill only the kwh figure *)
            let kwh =
              match String.index_opt reading ';' with
              | Some i -> String.sub reading (i + 1) (String.length reading - i - 1)
              | None -> reading
            in
            let rows =
              match ctx.Deploy.facilities.Substrate.f_load ~key:"rows" with
              | Some v -> int_of_string v + 1
              | None -> 1
            in
            ctx.Deploy.facilities.Substrate.f_store ~key:"rows" (string_of_int rows);
            Printf.sprintf "billed(%s,rows=%d)" kwh rows ) ]
    in
    (match Deploy.deploy ~substrates components with
     | Error e -> Error ("meter deployment: " ^ e)
     | Ok d ->
       let harness_layer =
         Snap.make ~name:"meter:harness"
           ~take:(fun () ->
             Snap.save_refs
               [ (fun () -> Net.take_snapshot net);
                 (fun () -> Gateway.take_snapshot gw);
                 (fun () -> Snap.save_ref poll_tick) ])
           ~digest:(fun () ->
             let d = Net.state_digest net in
             let d = D64.combine d (Gateway.state_digest gw) in
             D64.int d !poll_tick)
       in
       Ok
         { d_deploy = d;
           d_world = Deploy.world ~extra:[ harness_layer ] d;
           d_mix = (fun _rng i -> ("collector", "poll", Printf.sprintf "poll-%d" i));
           d_probe = (Some "meter", "anonymizer", "ingest");
           d_routes =
             [ ("collector", "poll",
                [ "collector"; "meter"; "utility"; "anonymizer" ]) ];
           d_storage = None })

(* cloud: the §II-B outsourced computation under job load — the
   untrusted host forwards every job into the customer enclave. *)
let deploy_cloud rng =
  let ca = Rsa.generate ~bits:512 rng in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:256 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let substrates = [ ("microkernel", mk); ("sgx", sgx) ] in
  let components =
    [ ( Manifest.v ~name:"host" ~provides:[ "submit" ] ~network_facing:true
          ~vulnerable:true
          ~connects_to:[ Manifest.conn ~vetted:true "enclave" "ecall" ]
          ~substrate:"microkernel" ~size_loc:50_000
          ~restart:(Manifest.default_restart Manifest.Always) (),
        fun ctx ~service:_ job ->
          call_or_err ctx ~target:"enclave" ~service:"ecall" job );
      ( Manifest.v ~name:"enclave" ~provides:[ "ecall" ] ~substrate:"sgx"
          ~size_loc:1500 ~stateful:true
          ~restart:(Manifest.default_restart Manifest.On_failure) (),
        fun ctx ~service:_ job ->
          let jobs =
            match ctx.Deploy.facilities.Substrate.f_load ~key:"jobs" with
            | Some v -> int_of_string v + 1
            | None -> 1
          in
          ctx.Deploy.facilities.Substrate.f_store ~key:"jobs" (string_of_int jobs);
          let digest = String.sub (Sha256.hex (Hmac.mac ~key:"corpus" job)) 0 8 in
          Printf.sprintf "result(%s,jobs=%d)" digest jobs ) ]
  in
  match Deploy.deploy ~substrates components with
  | Error e -> Error ("cloud deployment: " ^ e)
  | Ok d ->
    Ok
      { d_deploy = d;
        d_world = Deploy.world d;
        d_mix = (fun _rng i -> ("host", "submit", Printf.sprintf "job-%d" i));
        d_probe = (None, "enclave", "ecall");
        d_routes = [ ("host", "submit", [ "host"; "enclave" ]) ];
        d_storage = None }

let deploy_scenario rng = function
  | Mail -> deploy_mail rng
  | Meter -> deploy_meter rng
  | Cloud -> deploy_cloud rng

(* --- the closed loop ------------------------------------------------------ *)

type fault = F_none | F_drop | F_delay of int | F_compromise

let pick_fault rng plan =
  let roll = Drbg.int rng 100 in
  if roll < plan.drop_pct then F_drop
  else if roll < plan.drop_pct + plan.delay_pct then F_delay (1 + Drbg.int rng 16)
  else if roll < plan.drop_pct + plan.delay_pct + plan.compromise_pct then
    F_compromise
  else F_none

(* --- the driver core --------------------------------------------------------- *)

let boot ~scenario ~seed =
  let rng = Drbg.create (Int64.of_int seed) in
  Result.map (fun dep -> (rng, dep)) (deploy_scenario (Drbg.split rng) scenario)

let instrumented ?trace_capacity f =
  let tracer = Trace.create ?capacity:trace_capacity () in
  let metrics = Metrics.create () in
  let v = Metrics.with_metrics metrics (fun () -> Trace.with_tracer tracer f) in
  (v, tracer, metrics)

let schedule rng ~requests names =
  List.map (fun name -> (1 + Drbg.int rng (max requests 1), name)) names

type 'e outcome = Served | Degraded | Failed of 'e

let request ~attrs ~target ~service ~error call =
  Trace.with_span ~kind:"request" ~name:(Trace.span_name target service) ~attrs
    (fun () ->
      match call () with
      | Ok reply when String.starts_with ~prefix:"rate-limited:" reply -> Degraded
      | Ok _ -> Served
      | Error e ->
        Trace.fail_span (error e);
        Failed e)

let run ?(faults = { drop_pct = 0; delay_pct = 0; compromise_pct = 0 })
    ?trace_capacity ~scenario ~requests ~seed () =
  if requests < 0 then Error "requests must be non-negative"
  else if faults.drop_pct < 0 || faults.delay_pct < 0 || faults.compromise_pct < 0
          || faults.drop_pct + faults.delay_pct + faults.compromise_pct > 100
  then Error "fault percentages must be non-negative and sum to at most 100"
  else begin
    match boot ~scenario ~seed with
    | Error e -> Error e
    | Ok (rng, dep) ->
      let ok = ref 0 and degraded = ref 0 and errors = ref 0 in
      let dropped = ref 0 and delayed = ref 0 and denied = ref 0 in
      let (), tracer, metrics =
        instrumented ?trace_capacity (fun () ->
            for i = 1 to requests do
              Trace.set_trace i;
              let target, service, payload = dep.d_mix rng i in
              match pick_fault rng faults with
              | F_drop ->
                incr dropped;
                Metrics.incr "load/faults_dropped";
                Trace.event ~iattr:("request", i) ~kind:"fault" ~name:"drop" ()
              | F_compromise ->
                (* a caller that has no manifest channel to the target
                   probes it; the router must deny every attempt *)
                incr denied;
                Metrics.incr "load/faults_compromise";
                let caller, ptarget, pservice = dep.d_probe in
                Trace.with_span ~kind:"fault" ~name:"compromised-caller"
                  ~attrs:[ ("request", string_of_int i) ]
                  (fun () ->
                    match
                      Deploy.call dep.d_deploy ~caller ~target:ptarget
                        ~service:pservice payload
                    with
                    | Ok _ -> Trace.fail_span "off-manifest call got through"
                    | Error _ -> ())
              | (F_none | F_delay _) as f ->
                (match f with
                 | F_delay n ->
                   incr delayed;
                   Metrics.incr "load/faults_delayed";
                   Trace.advance n
                 | _ -> ());
                Metrics.incr "load/requests";
                match
                  request ~attrs:[ ("request", string_of_int i) ] ~target
                    ~service ~error:Fun.id (fun () ->
                      Deploy.call dep.d_deploy ~caller:None ~target ~service
                        payload)
                with
                | Served ->
                  incr ok;
                  Metrics.incr "load/ok"
                | Degraded ->
                  incr degraded;
                  Metrics.incr "load/degraded"
                | Failed _ ->
                  incr errors;
                  Metrics.incr "load/errors"
            done)
      in
      let substrates =
        List.sort_uniq Stdlib.compare
          (List.filter_map
             (fun sp -> List.assoc_opt "substrate" sp.Trace.sp_attrs)
             (Trace.spans tracer))
      in
      Ok
        ( { r_scenario = scenario_name scenario;
            r_requests = requests;
            r_seed = seed;
            r_ok = !ok;
            r_degraded = !degraded;
            r_errors = !errors;
            r_dropped = !dropped;
            r_delayed = !delayed;
            r_denied_probes = !denied;
            r_violations = List.length (Deploy.violations dep.d_deploy);
            r_substrates = substrates;
            r_spans = Trace.recorded tracer;
            r_span_ticks = Trace.now tracer;
            r_counters = Metrics.counters metrics;
            r_histograms = Metrics.summaries metrics },
          tracer )
  end

(* --- rendering ------------------------------------------------------------ *)

let render_report_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lateral run %s: %d requests, seed %d\n" r.r_scenario
       r.r_requests r.r_seed);
  Buffer.add_string buf
    (Printf.sprintf
       "  ok %d, degraded %d, errors %d | faults: dropped %d, delayed %d, denied probes %d\n"
       r.r_ok r.r_degraded r.r_errors r.r_dropped r.r_delayed r.r_denied_probes);
  Buffer.add_string buf
    (Printf.sprintf "  violations recorded by the router: %d\n" r.r_violations);
  Buffer.add_string buf
    (Printf.sprintf "  spans: %d over %d ticks, substrates crossed: %s\n" r.r_spans
       r.r_span_ticks
       (if r.r_substrates = [] then "-" else String.concat ", " r.r_substrates));
  Buffer.add_string buf "counters:\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" k v))
    r.r_counters;
  Buffer.add_string buf
    (Printf.sprintf "latency histograms (ticks):\n  %-40s %8s %8s %8s %8s %8s\n"
       "key" "count" "p50" "p95" "p99" "max");
  List.iter
    (fun (k, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-40s %8d %8d %8d %8d %8d\n" k s.Metrics.s_count
           s.Metrics.s_p50 s.Metrics.s_p95 s.Metrics.s_p99 s.Metrics.s_max))
    r.r_histograms;
  Buffer.contents buf

let render_report_json r =
  Json.to_string
    (Json.Obj
       [ ("scenario", Json.Str r.r_scenario); ("requests", Json.Int r.r_requests);
         ("seed", Json.Int r.r_seed); ("ok", Json.Int r.r_ok);
         ("degraded", Json.Int r.r_degraded); ("errors", Json.Int r.r_errors);
         ("dropped", Json.Int r.r_dropped); ("delayed", Json.Int r.r_delayed);
         ("denied_probes", Json.Int r.r_denied_probes);
         ("violations", Json.Int r.r_violations); ("spans", Json.Int r.r_spans);
         ("span_ticks", Json.Int r.r_span_ticks);
         ("substrates", Json.strs r.r_substrates);
         ("counters", Json.counts r.r_counters);
         ( "histograms",
           Json.Obj
             (List.map (fun (k, s) -> (k, Metrics.summary_json s)) r.r_histograms) ) ])
  ^ "\n"
