open Lt_crypto
module Trustzone = Lt_trustzone.Trustzone

exception Svc_state of string (* service name *)

let properties =
  { Substrate.substrate_name = "trustzone";
    concurrent_components = false;
    mutually_isolated = false;
    defends = [ Substrate.Remote_software; Substrate.Local_software ];
    tcb =
      [ ("boot-rom", 1_000); ("secure-world-os", 15_000); ("trustzone-hw", 3_000) ];
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make machine ~vendor ~image ~device_id ~device_key_name ~secure_pages =
  let tz = Trustzone.install machine ~secure_pages ~vendor_pub:vendor in
  match Trustzone.boot tz ~image with
  | Error e -> Error e
  | Ok world_measurement ->
    let facilities ctx ~comp =
      let seal_key =
        match Trustzone.fuse_read ctx ~name:device_key_name with
        | Some k -> Hkdf.derive ~secret:k ~salt:"tz-seal" ~info:comp 16
        | None -> invalid_arg "trustzone: device key not fused"
      in
      { Substrate.f_seal =
          (fun data ->
            let nonce = String.sub (Sha256.digest (comp ^ data)) 0 Speck.nonce_size in
            Speck.Aead.to_wire
              (Speck.Aead.encrypt ~key:seal_key ~nonce ~ad:"tz-seal" data));
        f_unseal =
          (fun wire ->
            match Speck.Aead.of_wire wire with
            | None -> None
            | Some box -> Speck.Aead.decrypt ~key:seal_key ~ad:"tz-seal" box);
        f_store = (fun ~key data -> Trustzone.store ctx ~key data);
        f_load = (fun ~key -> Trustzone.load ctx ~key) }
    in
    (* crash marks the secure service dead; the secure world itself keeps
       running, so fused keys and secure storage survive for the relaunch *)
    let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    let crash, is_alive, revive = Substrate.lifecycle ~dead () in
    let launch ~name ~code ~services =
      ignore code;
      revive name;
      (* TrustZone measures the world, not the component: code identity
         is the booted secure-world image for every service. One secure
         service per component dispatches its entry points, so all entry
         points share the component's store namespace. *)
      Trustzone.register_service tz ~name (fun ctx arg ->
          Substrate.serve services (facilities ctx ~comp:name) arg);
      Ok
        (Substrate.make_component ~name ~measurement:world_measurement
           ~state:(Svc_state name))
    in
    let svc_of c =
      match Substrate.component_state c with
      | Svc_state name -> name
      | _ -> invalid_arg "substrate_trustzone: foreign component"
    in
    let span_attrs = [ ("substrate", "trustzone") ] in
    let invoke c ~fn arg =
      if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
      else
      Lt_obs.Trace.with_span ~kind:"smc"
        ~name:(Lt_obs.Trace.span_name (Substrate.component_name c) fn)
        ~attrs:span_attrs
        (fun () ->
          Substrate.mark_span
            (match Trustzone.smc tz ~service:(svc_of c) (Substrate.request ~fn arg) with
             | Error e -> Error (Substrate.Fault e)
             | Ok reply -> Substrate.reply reply))
    in
    let attest c ~nonce ~claim =
      ignore c;
      let ev_no_tag =
        { Attestation.ev_substrate = "trustzone";
          ev_measurement = world_measurement;
          ev_nonce = nonce;
          ev_claim = claim;
          ev_proof = Attestation.Hmac_tag { device = device_id; tag = "" } }
      in
      (* the tag is computed inside the secure world via a hidden service *)
      let body = Attestation.signed_body ev_no_tag in
      let tag_service ctx arg =
        match Trustzone.fuse_read ctx ~name:device_key_name with
        | Some key -> Hmac.mac ~key arg
        | None -> ""
      in
      Trustzone.register_service tz ~name:"__lt_attest" tag_service;
      (match Trustzone.smc tz ~service:"__lt_attest" body with
       | Error e -> Error e
       | Ok "" -> Error "device key not fused"
       | Ok tag ->
         Ok
           { ev_no_tag with
             Attestation.ev_proof = Attestation.Hmac_tag { device = device_id; tag } })
    in
    let t =
      { Substrate.properties;
        launch;
        invoke;
        attest;
        measure = (fun ~code -> ignore code; world_measurement);
        destroy = (fun _ -> ());
        crash;
        is_alive;
        snap_layers = [] }
    in
    t.Substrate.snap_layers <-
      [ Lt_hw.Machine.layer machine;
        Lt_world.Snapshottable.make ~name:"trustzone"
          ~take:(fun () -> Trustzone.take_snapshot tz)
          ~digest:(fun () -> Trustzone.state_digest tz);
        Substrate.adapter_layer ~name:"substrate:trustzone" ~dead
          ~tables:(Hashtbl.create 1) () ];
    Ok (t, tz)
