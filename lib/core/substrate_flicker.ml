open Lt_crypto
open Lt_tpm

type pal_state = {
  pal : Latelaunch.pal;
  expected_composite : string;
}

exception Pal_state of pal_state

let properties =
  { Substrate.substrate_name = "flicker";
    concurrent_components = false;
    mutually_isolated = true;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_code_swap ];
    tcb = [ ("crtm+tpm", 5_000); ("late-launch-microcode", 3_000) ];
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make tpm ?clock () =
  (* crash marks the PAL dead between sessions; its sealed store blob is
     untouched, so a relaunch of the same code unseals it again *)
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let crash, is_alive, revive = Substrate.lifecycle ~dead () in
  let stores : (string, Tpm.sealed option ref) Hashtbl.t = Hashtbl.create 4 in
  let launch ~name ~code ~services =
    revive name;
    (* each PAL carries its persistent state as a blob sealed to its own
       DRTM identity; the untrusted host merely stores the ciphertext *)
    let sealed_store : Tpm.sealed option ref = ref None in
    Hashtbl.replace stores name sealed_store;
    let load_table () =
      match !sealed_store with
      | None -> Hashtbl.create 4
      | Some blob ->
        (match Tpm.unseal tpm blob with
         | None -> Hashtbl.create 4 (* different PAL resident: empty view *)
         | Some plain ->
           let table = Hashtbl.create 4 in
           (match Wire.decode plain with
            | Some entries ->
              List.iter
                (fun e ->
                  match Wire.decode e with
                  | Some [ k; v ] -> Hashtbl.replace table k v
                  | _ -> ())
                entries
            | None -> ());
           table)
    in
    let save_table table =
      let plain =
        Wire.encode
          (Hashtbl.fold (fun k v acc -> Wire.encode [ k; v ] :: acc) table []
           |> List.sort Stdlib.compare)
      in
      sealed_store := Some (Latelaunch.seal_for tpm plain)
    in
    let facilities =
      { Substrate.f_seal =
          (fun data -> Tpm.sealed_to_wire (Latelaunch.seal_for tpm data));
        f_unseal =
          (fun wire ->
            match Tpm.sealed_of_wire wire with
            | None -> None
            | Some sealed -> Latelaunch.unseal_for tpm sealed);
        f_store =
          (fun ~key data ->
            let table = load_table () in
            Hashtbl.replace table key data;
            save_table table);
        f_load = (fun ~key -> Hashtbl.find_opt (load_table ()) key) }
    in
    let handler = Substrate.serve services facilities in
    (* the PAL's measured identity is its code alone (pal_name is fixed),
       so the verifier-side [measure] can predict it from code *)
    ignore name;
    let pal = { Latelaunch.pal_name = "pal"; pal_code = code; handler } in
    let state =
      { pal; expected_composite = Latelaunch.expected_drtm_composite tpm pal }
    in
    Ok
      (Substrate.make_component ~name ~measurement:state.expected_composite
         ~state:(Pal_state state))
  in
  let pal_of c =
    match Substrate.component_state c with
    | Pal_state s -> s
    | _ -> invalid_arg "substrate_flicker: foreign component"
  in
  let invoke c ~fn arg =
    if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
    else
      let r =
        Latelaunch.execute ?clock tpm (pal_of c).pal ~nonce:"session"
          ~input:(Substrate.request ~fn arg)
      in
      Substrate.reply r.Latelaunch.output
  in
  let attest c ~nonce ~claim =
    let s = pal_of c in
    (* the TPM only quotes current state: the PAL must be resident *)
    let current = Pcr.composite (Tpm.pcrs tpm) [ Pcr.drtm_index ] in
    if not (Ct.equal current s.expected_composite) then
      Error "PAL not resident in the dynamic PCR (run it first)"
    else begin
      let ev_no_sig =
        { Attestation.ev_substrate = "flicker";
          ev_measurement = s.expected_composite;
          ev_nonce = nonce;
          ev_claim = claim;
          ev_proof = Attestation.Rsa_quote { signature = ""; cert = Tpm.ek_cert tpm } }
      in
      let signature = Tpm.ak_sign tpm ~body:(Attestation.signed_body ev_no_sig) in
      Ok
        { ev_no_sig with
          Attestation.ev_proof =
            Attestation.Rsa_quote { signature; cert = Tpm.ek_cert tpm } }
    end
  in
  let measure ~code =
    let scratch = { Latelaunch.pal_name = "pal"; pal_code = code; handler = Fun.id } in
    Latelaunch.expected_drtm_composite tpm scratch
  in
  let t =
    { Substrate.properties; launch; invoke; attest; measure;
      destroy = (fun _ -> ()); crash; is_alive; snap_layers = [] }
  in
  let module Snap = Lt_world.Snapshottable in
  let module D64 = Lt_world.Digest64 in
  t.Substrate.snap_layers <-
    [ Tpm.layer tpm;
      Substrate.adapter_layer ~name:"substrate:flicker" ~dead
        ~tables:(Hashtbl.create 1)
        ~extra_take:
          [ (fun () ->
              (* the sealed-store refs: outer bindings plus each ref's blob *)
              let outer = Snap.save_hashtbl stores in
              let inner =
                Hashtbl.fold (fun _ r acc -> Snap.save_ref r :: acc) stores []
              in
              fun () ->
                outer ();
                List.iter (fun restore -> restore ()) inner) ]
        ~extra_digest:(fun d ->
          List.fold_left
            (fun d (name, r) ->
              let d = D64.string d name in
              match !r with
              | None -> D64.bool d false
              | Some sealed -> D64.string d (Tpm.sealed_to_wire sealed))
            (D64.int d (Hashtbl.length stores))
            (Snap.sorted_bindings stores))
        () ]
    @ (match clock with
       | Some ck ->
         [ Snap.make ~name:"flicker:clock"
             ~take:(fun () -> Lt_hw.Clock.take_snapshot ck)
             ~digest:(fun () -> Lt_hw.Clock.state_digest ck) ]
       | None -> []);
  t
