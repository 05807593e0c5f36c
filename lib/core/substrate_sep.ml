open Lt_crypto
module Sep = Lt_sep.Sep

exception Svc_state of string

let properties =
  { Substrate.substrate_name = "sep";
    concurrent_components = false;
    mutually_isolated = false;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("sep-kernel", 8_000); ("sep-hardware", 4_000); ("boot-rom", 1_000) ];
    shared_cache_with_host = false;
    progress_guaranteed = true }

let measure_code code = Sha256.digest ("sep-service|" ^ code)

let make machine rng ~device_id ~private_pages =
  let sep = Sep.attach machine rng ~private_pages in
  let measurements : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let facilities ctx ~comp =
    { Substrate.f_seal =
        (fun data ->
          let key = Sep.derive ctx ~info:("seal|" ^ comp) 16 in
          let nonce = String.sub (Sha256.digest (comp ^ data)) 0 Speck.nonce_size in
          Speck.Aead.to_wire (Speck.Aead.encrypt ~key ~nonce ~ad:"sep-seal" data));
      f_unseal =
        (fun wire ->
          let key = Sep.derive ctx ~info:("seal|" ^ comp) 16 in
          match Speck.Aead.of_wire wire with
          | None -> None
          | Some box -> Speck.Aead.decrypt ~key ~ad:"sep-seal" box);
      f_store = (fun ~key data -> Sep.store ctx ~key data);
      f_load = (fun ~key -> Sep.load ctx ~key) }
  in
  (* crash marks the mailbox service dead; the SEP itself keeps running,
     so secure-world storage and the UID key survive for the relaunch *)
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let crash, is_alive, revive = Substrate.lifecycle ~dead () in
  let launch ~name ~code ~services =
    revive name;
    Hashtbl.replace measurements name (measure_code code);
    (* one mailbox service per component dispatches its entry points so
       they share the component's store namespace *)
    Sep.register_service sep ~name (fun ctx arg ->
        Substrate.serve services (facilities ctx ~comp:name) arg);
    Ok
      (Substrate.make_component ~name ~measurement:(measure_code code)
         ~state:(Svc_state name))
  in
  let svc_of c =
    match Substrate.component_state c with
    | Svc_state name -> name
    | _ -> invalid_arg "substrate_sep: foreign component"
  in
  let span_attrs = [ ("substrate", "sep") ] in
  let invoke c ~fn arg =
    if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
    else
    Lt_obs.Trace.with_span ~kind:"mailbox"
      ~name:(Lt_obs.Trace.span_name (Substrate.component_name c) fn)
      ~attrs:span_attrs
      (fun () ->
        Substrate.mark_span
          (match Sep.mailbox_call sep ~service:(svc_of c) (Substrate.request ~fn arg) with
           | Error e -> Error (Substrate.Fault e)
           | Ok reply -> Substrate.reply reply))
  in
  let attest c ~nonce ~claim =
    let measurement = Substrate.component_measurement c in
    let ev_no_tag =
      { Attestation.ev_substrate = "sep";
        ev_measurement = measurement;
        ev_nonce = nonce;
        ev_claim = claim;
        ev_proof = Attestation.Hmac_tag { device = device_id; tag = "" } }
    in
    let body = Attestation.signed_body ev_no_tag in
    Sep.register_service sep ~name:"__lt_attest" (fun ctx arg ->
        Hmac.mac ~key:(Sep.uid_key ctx) arg);
    match Sep.mailbox_call sep ~service:"__lt_attest" body with
    | Error e -> Error e
    | Ok tag ->
      Ok
        { ev_no_tag with
          Attestation.ev_proof = Attestation.Hmac_tag { device = device_id; tag } }
  in
  let t =
    { Substrate.properties;
      launch;
      invoke;
      attest;
      measure = (fun ~code -> measure_code code);
      destroy = (fun _ -> ());
      crash;
      is_alive;
      snap_layers = [] }
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Lt_world.Snapshottable.make ~name:"sep"
        ~take:(fun () -> Sep.take_snapshot sep)
        ~digest:(fun () -> Sep.state_digest sep);
      Substrate.adapter_layer ~name:"substrate:sep" ~dead
        ~tables:(Hashtbl.create 1)
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_hashtbl measurements) ]
        ~extra_digest:(fun d ->
          Lt_world.Snapshottable.digest_hashtbl
            ~key:(fun k -> k) ~value:(fun v -> v) measurements d)
        () ];
  (t, sep, Sep.provisioning_record sep)
