open Lt_crypto
module Noc = Lt_noc.Noc

exception Tile_state of Noc.tile

let properties =
  { Substrate.substrate_name = "m3-noc";
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("m3-kernel-tile", 6_000); ("dtu-hardware", 2_000) ];
    shared_cache_with_host = false;
    progress_guaranteed = true }

let measure_code code = Sha256.digest ("m3-tile-program|" ^ code)

let make rng ~ca_name ~ca_key ~tiles () =
  let chip = Noc.create ~tiles ~scratchpad_size:8192 in
  let kernel_key = Rsa.generate ~bits:512 rng in
  let kernel_cert = Cert.issue ~ca_name ~ca_key ~subject:"m3-kernel" kernel_key.Rsa.pub in
  let session_secret = Drbg.bytes rng 32 in
  let next_tile = ref 1 in
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let tables : (string, (string, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  (* crash marks the tile's program dead; the tile itself is not reused.
     A relaunch gets a fresh tile with an empty scratchpad but the same
     measurement-derived seal key. *)
  let crash, is_alive, revive = Substrate.lifecycle ~dead () in
  let launch ~name ~code ~services =
    revive name;
    if !next_tile >= tiles then Error "m3: no free compute tile"
    else begin
      let tile = !next_tile in
      incr next_tile;
      let measurement = measure_code code in
      let seal_key =
        Hkdf.derive ~secret:session_secret ~salt:"m3-seal" ~info:measurement 16
      in
      let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace tables name table;
      let mirror () =
        (* state lives in the tile's on-chip scratchpad *)
        let blob =
          Wire.encode
            (Hashtbl.fold (fun k v acc -> Wire.encode [ k; v ] :: acc) table []
             |> List.sort Stdlib.compare)
        in
        if String.length blob <= 8192 then Noc.spm_write chip ~tile ~off:0 blob
      in
      let facilities =
        { Substrate.f_seal =
            (fun data ->
              let nonce = String.sub (Sha256.digest data) 0 Speck.nonce_size in
              Speck.Aead.to_wire
                (Speck.Aead.encrypt ~key:seal_key ~nonce ~ad:"m3-seal" data));
          f_unseal =
            (fun wire ->
              Option.bind (Speck.Aead.of_wire wire)
                (Speck.Aead.decrypt ~key:seal_key ~ad:"m3-seal"));
          f_store =
            (fun ~key data ->
              Hashtbl.replace table key data;
              mirror ());
          f_load = (fun ~key -> Hashtbl.find_opt table key) }
      in
      Noc.install_program chip ~tile ~code (Substrate.serve services facilities);
      (* the kernel wires the channels: the tile accepts messages and the
         kernel tile gets a send endpoint towards it *)
      Noc.configure chip ~by:Noc.kernel_tile ~tile ~ep:0 Noc.Receive;
      Noc.configure chip ~by:Noc.kernel_tile ~tile:Noc.kernel_tile ~ep:tile
        (Noc.Send { target = tile; credits = 8 });
      Ok (Substrate.make_component ~name ~measurement ~state:(Tile_state tile))
    end
  in
  let tile_of c =
    match Substrate.component_state c with
    | Tile_state tile -> tile
    | _ -> invalid_arg "substrate_m3: foreign component"
  in
  let invoke c ~fn arg =
    if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
    else
      match
        Noc.send chip ~from_tile:Noc.kernel_tile ~ep:(tile_of c)
          (Substrate.request ~fn arg)
      with
      | Error e -> Error (Substrate.Fault e)
      | Ok reply -> Substrate.reply reply
  in
  let attest c ~nonce ~claim =
    let tile = tile_of c in
    match Noc.measurement chip ~tile with
    | None -> Error "tile has no program"
    | Some measurement ->
      let ev_no_sig =
        { Attestation.ev_substrate = "m3-noc";
          ev_measurement = measurement;
          ev_nonce = nonce;
          ev_claim = claim;
          ev_proof = Attestation.Rsa_quote { signature = ""; cert = kernel_cert } }
      in
      let signature = Rsa.sign kernel_key (Attestation.signed_body ev_no_sig) in
      Ok
        { ev_no_sig with
          Attestation.ev_proof = Attestation.Rsa_quote { signature; cert = kernel_cert } }
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
    [ Lt_world.Snapshottable.make ~name:"noc"
        ~take:(fun () -> Noc.take_snapshot chip)
        ~digest:(fun () -> Noc.state_digest chip);
      Substrate.adapter_layer ~name:"substrate:m3-noc" ~dead ~tables
        ~extra_take:[ (fun () -> Lt_world.Snapshottable.save_ref next_tile) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !next_tile)
        () ];
  (t, chip)
