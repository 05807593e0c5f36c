open Lt_crypto
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway

type tamper =
  | Genuine
  | Manipulated_anonymizer
  | Emulated_meter
  | Mitm_reading
  | Replayed_session
  | Unsigned_secure_world

type outcome = {
  anonymizer_verified : bool;
  reading_sent : bool;
  reading_accepted : bool;
  anonymized_rows : int;
  customer_id_leaked : bool;
  detail : string;
}

let tamper_name = function
  | Genuine -> "genuine"
  | Manipulated_anonymizer -> "manipulated-anonymizer"
  | Emulated_meter -> "emulated-meter"
  | Mitm_reading -> "mitm-reading"
  | Replayed_session -> "replayed-session"
  | Unsigned_secure_world -> "unsigned-secure-world"

let all_tampers =
  [ Genuine; Manipulated_anonymizer; Emulated_meter; Mitm_reading;
    Replayed_session; Unsigned_secure_world ]

(* the Figure 3 topology as manifests: readings leave the TrustZone
   meter only through attestation-vetted channels, and the anonymizer
   enclave ingests only through the utility's vetted boundary *)
let manifests =
  [ Manifest.v ~name:"meter" ~provides:[ "read" ] ~substrate:"trustzone"
      ~connects_to:[ Manifest.conn ~vetted:true "utility" "submit" ]
      ~size_loc:2000 ();
    Manifest.v ~name:"utility" ~provides:[ "submit" ] ~network_facing:true
      ~connects_to:[ Manifest.conn ~vetted:true "anonymizer" "ingest" ]
      ~size_loc:9000 ();
    Manifest.v ~name:"anonymizer" ~provides:[ "ingest" ] ~substrate:"sgx"
      ~size_loc:1200 () ]

let conformance = lazy (Flow.check_deployment manifests)

let good_anonymizer_code =
  "anonymizer-v1: strip customer id, keep kwh, store aggregate only"

let evil_anonymizer_code =
  "anonymizer-v1-evil: keep customer id for marketing analytics"

let customer_id = "customer-4711"

(* anonymizer services: shared by the good and evil variants; only the
   evil one keeps the customer id *)
let anonymizer_services ~evil db =
  [ ("ingest",
     fun _fac reading ->
       (* reading format: "customer=<id>;kwh=<n>" *)
       let kwh =
         match String.index_opt reading ';' with
         | Some i -> String.sub reading (i + 1) (String.length reading - i - 1)
         | None -> reading
       in
       let row = if evil then reading else kwh in
       db := row :: !db;
       "ingested") ]

let run ?(seed = 1L) tamper =
  match Lazy.force conformance with
  | Error e -> Error ("meter scenario manifests: " ^ e)
  | Ok () ->
  let rng = Drbg.create seed in
  (* --- manufacturing and provisioning --------------------------------- *)
  let intel_ca = Rsa.generate ~bits:512 rng in
  let tz_vendor = Rsa.generate ~bits:512 rng in
  let device_key = Drbg.bytes rng 32 in
  (* --- the meter appliance -------------------------------------------- *)
  let meter_machine = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program meter_machine.Lt_hw.Machine.fuses ~name:"meter-key"
    ~visibility:Lt_hw.Fuse.Secure_only device_key;
  let image =
    match tamper with
    | Unsigned_secure_world ->
      Lt_tpm.Boot.unsigned_stage ~name:"tz-os" "meter-secure-os-v1"
    | _ -> Lt_tpm.Boot.sign_stage tz_vendor ~name:"tz-os" "meter-secure-os-v1"
  in
  let meter_sub =
    Substrate_trustzone.make meter_machine ~vendor:tz_vendor.Rsa.pub ~image
      ~device_id:"meter-0001" ~device_key_name:"meter-key" ~secure_pages:4
  in
  (* --- the utility server ---------------------------------------------- *)
  let server_machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx_sub, _cpu =
    Substrate_sgx.make server_machine rng ~ca_name:"intel" ~ca_key:intel_ca ()
  in
  let db = ref [] in
  let evil = tamper = Manipulated_anonymizer in
  let anon_code = if evil then evil_anonymizer_code else good_anonymizer_code in
  match
    sgx_sub.Substrate.launch ~name:"anonymizer" ~code:anon_code
      ~services:(anonymizer_services ~evil db)
  with
  | Error e -> Error ("launch anonymizer: " ^ e)
  | Ok anonymizer ->
  (* --- the untrusted network ------------------------------------------- *)
  let net = Net.create () in
  (* fresh net: these cannot collide *)
  List.iter
    (fun a -> match Net.register net a with Ok () | Error `Duplicate_addr -> ())
    [ "meter"; "utility" ];
  (match tamper with
   | Mitm_reading ->
     Net.set_adversary net (fun p ->
         match Wire.untag p.Net.payload with
         | Some ("reading", [ reading; ev ]) ->
           (* inflate the reading, keep the evidence *)
           ignore reading;
           Net.Tamper (Wire.tagged "reading" [ "customer=4711;kwh=99999"; ev ])
         | _ -> Net.Deliver)
   | _ -> ());
  (* what each side is configured to accept *)
  let meter_policy =
    { Attestation.trusted_cas = [ ("intel", intel_ca.Rsa.pub) ];
      shared_device_keys = [];
      (* the utility open-sourced the anonymizer: the meter knows its
         known-good measurement *)
      accepted_measurements = [ sgx_sub.Substrate.measure ~code:good_anonymizer_code ] }
  in
  let utility_policy ~meter_measurement =
    { Attestation.trusted_cas = [];
      shared_device_keys = [ ("meter-0001", device_key) ];
      accepted_measurements = [ meter_measurement ] }
  in
  let finish ~anonymizer_verified ~reading_sent ~reading_accepted ~detail =
    { anonymizer_verified;
      reading_sent;
      reading_accepted;
      anonymized_rows = List.length !db;
      customer_id_leaked =
        List.exists
          (fun row ->
            let n = String.length customer_id and h = String.length row in
            let rec go i =
              i + n <= h && (String.sub row i n = customer_id || go (i + 1))
            in
            go 0)
          !db;
      detail }
  in
  match meter_sub with
  | Error e ->
    (* boot ROM refused the secure world: no attestation, no trust *)
    Ok
      (finish ~anonymizer_verified:false ~reading_sent:false
         ~reading_accepted:false ~detail:("meter trust anchor: " ^ e))
  | Ok (tz_sub, _tz) ->
    match
      tz_sub.Substrate.launch ~name:"meter" ~code:"meter-logic-v1"
        ~services:
          [ ("read",
             fun fac _ ->
               let n =
                 match fac.Substrate.f_load ~key:"kwh" with
                 | Some v -> int_of_string v + 3
                 | None -> 3
               in
               fac.Substrate.f_store ~key:"kwh" (string_of_int n);
               Printf.sprintf "customer=4711;kwh=%d" n) ]
    with
    | Error e -> Error ("launch meter: " ^ e)
    | Ok meter_comp ->
    let meter_measurement = Substrate.component_measurement meter_comp in
    (* ---- session ------------------------------------------------------ *)
    (* 1. meter challenges the utility *)
    let meter_nonce = Sha256.hex (Drbg.bytes rng 16) in
    Net.send net ~src:"meter" ~dst:"utility" (Wire.tagged "hello" [ meter_nonce ]);
    (* 2. utility answers with anonymizer evidence and its own challenge *)
    let server_nonce = Sha256.hex (Drbg.bytes rng 16) in
    let evidence_sent =
      match Net.recv net "utility" with
      | Some { Net.payload; _ } ->
        (match Wire.untag payload with
         | Some ("hello", [ n ]) ->
           (match
              sgx_sub.Substrate.attest anonymizer ~nonce:n ~claim:"role=anonymizer"
            with
            | Ok ev ->
              Net.send net ~src:"utility" ~dst:"meter"
                (Wire.tagged "anonymizer-evidence"
                   [ Attestation.to_wire ev; server_nonce ]);
              Ok ()
            | Error e -> Error ("anonymizer attest: " ^ e))
         | _ -> Ok ())
      | None -> Ok ()
    in
    match evidence_sent with
    | Error e -> Error e
    | Ok () ->
    (* 3. meter verifies the anonymizer before releasing private data *)
    let anonymizer_verified, got_server_nonce =
      match Net.recv net "meter" with
      | Some { Net.payload; _ } ->
        (match Wire.untag payload with
         | Some ("anonymizer-evidence", [ ev_wire; srv_nonce ]) ->
           (match Attestation.of_wire ev_wire with
            | Some ev ->
              (match Attestation.verify meter_policy ~nonce:meter_nonce ev with
               | Ok () -> (true, Some srv_nonce)
               | Error _ -> (false, None))
            | None -> (false, None))
         | _ -> (false, None))
      | None -> (false, None)
    in
    if not anonymizer_verified then
      Ok
        (finish ~anonymizer_verified:false ~reading_sent:false
           ~reading_accepted:false
           ~detail:"meter refused: anonymizer identity not acceptable")
    else begin
      let srv_nonce = Option.get got_server_nonce in
      (* 4. meter reads and attests; an emulated meter forges instead *)
      let staged =
        match tamper with
        | Emulated_meter ->
          let fake = "customer=4711;kwh=0" in
          let forged =
            Attestation.make_hmac ~substrate:"trustzone"
              ~measurement:meter_measurement ~nonce:srv_nonce
              ~claim:("reading=" ^ fake) ~device:"meter-0001"
              ~key:"guessed-key-wrong"
          in
          Ok (fake, Attestation.to_wire forged)
        | _ ->
          (match tz_sub.Substrate.invoke meter_comp ~fn:"read" "" with
           | Error e -> Error ("meter read: " ^ Substrate.render_error e)
           | Ok reading ->
             (match
                tz_sub.Substrate.attest meter_comp ~nonce:srv_nonce
                  ~claim:("reading=" ^ reading)
              with
              | Error e -> Error ("meter attest: " ^ e)
              | Ok ev -> Ok (reading, Attestation.to_wire ev)))
      in
      match staged with
      | Error e -> Error e
      | Ok (reading, ev_wire) ->
      Net.send net ~src:"meter" ~dst:"utility"
        (Wire.tagged "reading" [ reading; ev_wire ]);
      (* replay: the adversary re-injects the observed message in a NEW
         session where the server expects a fresh nonce *)
      let session_nonce_at_server =
        match tamper with
        | Replayed_session -> Sha256.hex (Drbg.bytes rng 16) (* a later session *)
        | _ -> srv_nonce
      in
      (* 5. utility verifies and bills *)
      let reading_accepted, detail =
        match Net.recv net "utility" with
        | Some { Net.payload; _ } ->
          (match Wire.untag payload with
           | Some ("reading", [ r; evw ]) ->
             (match Attestation.of_wire evw with
              | None -> (false, "utility: malformed evidence")
              | Some ev ->
                let policy = utility_policy ~meter_measurement in
                (match
                   Attestation.verify policy ~nonce:session_nonce_at_server ev
                 with
                 | Error f ->
                   (false, Format.asprintf "utility rejected: %a" Attestation.pp_failure f)
                 | Ok () ->
                   if ev.Attestation.ev_claim <> "reading=" ^ r then
                     (false, "utility rejected: reading does not match attested claim")
                   else begin
                     match sgx_sub.Substrate.invoke anonymizer ~fn:"ingest" r with
                     | Ok _ -> (true, "billed")
                     | Error e ->
                       (false, "anonymizer failed: " ^ Substrate.render_error e)
                   end))
           | _ -> (false, "utility: unexpected message"))
        | None -> (false, "utility: no message received")
      in
      Ok (finish ~anonymizer_verified ~reading_sent:true ~reading_accepted ~detail)
    end

let gateway_demo () =
  let flood_count = 50 in
  let victims = [ "victim-a"; "victim-b"; "victim-c" ] in
  let direct_hits =
    (* compromised Android with raw NIC access *)
    let net = Net.create () in
    List.iter
      (fun a -> match Net.register net a with Ok () | Error `Duplicate_addr -> ())
      ("utility" :: victims);
    for i = 1 to flood_count do
      List.iter
        (fun v -> Net.send net ~src:"android" ~dst:v (Printf.sprintf "syn-%d" i))
        victims
    done;
    List.fold_left (fun acc v -> acc + Net.pending net v) 0 victims
  in
  let gated_victim_hits, gated_utility_hits =
    (* same flood, but the gateway holds the NIC exclusively *)
    let net = Net.create () in
    List.iter
      (fun a -> match Net.register net a with Ok () | Error `Duplicate_addr -> ())
      ("utility" :: victims);
    let gw =
      Gateway.create ~whitelist:[ "utility" ] ~tokens_per_tick:0.2 ~burst:5.0
    in
    for i = 1 to flood_count do
      List.iter
        (fun v ->
          ignore
            (Gateway.submit gw net ~now:i ~src:"android" ~dst:v
               (Printf.sprintf "syn-%d" i)))
        victims;
      ignore
        (Gateway.submit gw net ~now:i ~src:"meter" ~dst:"utility"
           (Printf.sprintf "telemetry-%d" i))
    done;
    ( List.fold_left (fun acc v -> acc + Net.pending net v) 0 victims,
      Net.pending net "utility" )
  in
  (direct_hits, gated_victim_hits, gated_utility_hits)
