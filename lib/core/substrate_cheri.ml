open Lt_crypto
module Cheri = Lt_cheri.Cheri

type comp_state = {
  region : Cheri.cap; (* the compartment's only authority *)
  services : (string * Substrate.service) list;
  facilities : Substrate.facilities;
}

exception Compartment_state of comp_state

let compartment_bytes = 8192

let measure_code code = Sha256.digest ("cheri-compartment|" ^ code)

let properties =
  { Substrate.substrate_name = "cheri";
    concurrent_components = true;
    mutually_isolated = true;
    defends = [ Substrate.Remote_software; Substrate.Local_software ];
    tcb = [ ("capability-hardware", 4_000); ("compartment-loader", 1_500) ];
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make rng ~size () =
  let machine = Cheri.create ~size in
  let root = Cheri.root machine in
  let session_secret = Drbg.bytes rng 32 in
  let next_off = ref 0 in
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let tables : (string, (string, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  (* crash marks the compartment dead; its memory region is simply never
     handed out again. Sealed blobs survive because the seal key is
     derived from the measurement, which a relaunch reproduces. *)
  let crash, is_alive, revive = Substrate.lifecycle ~dead () in
  let launch ~name ~code ~services =
    revive name;
    if !next_off + compartment_bytes > Cheri.length root then
      Error "cheri: out of compartment memory"
    else begin
      let region =
        Cheri.derive root ~off:!next_off ~len:compartment_bytes
          ~perms:{ Cheri.load = true; store = true }
      in
      next_off := !next_off + compartment_bytes;
      let measurement = measure_code code in
      let seal_key =
        Hkdf.derive ~secret:session_secret ~salt:"cheri-seal" ~info:measurement 16
      in
      let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace tables name table;
      let mirror () =
        (* the component's state physically lives inside its bounds *)
        let blob =
          Wire.encode
            (Hashtbl.fold (fun k v acc -> Wire.encode [ k; v ] :: acc) table []
             |> List.sort Stdlib.compare)
        in
        if String.length blob <= compartment_bytes then
          Cheri.store machine region ~off:0 blob
      in
      let facilities =
        { Substrate.f_seal =
            (fun data ->
              let nonce = String.sub (Sha256.digest data) 0 Speck.nonce_size in
              Speck.Aead.to_wire
                (Speck.Aead.encrypt ~key:seal_key ~nonce ~ad:"cheri-seal" data));
          f_unseal =
            (fun wire ->
              Option.bind (Speck.Aead.of_wire wire)
                (Speck.Aead.decrypt ~key:seal_key ~ad:"cheri-seal"));
          f_store =
            (fun ~key data ->
              Hashtbl.replace table key data;
              mirror ());
          f_load = (fun ~key -> Hashtbl.find_opt table key) }
      in
      Ok
        (Substrate.make_component ~name ~measurement
           ~state:(Compartment_state { region; services; facilities }))
    end
  in
  let state_of c =
    match Substrate.component_state c with
    | Compartment_state s -> s
    | _ -> invalid_arg "substrate_cheri: foreign component"
  in
  let invoke c ~fn arg =
    if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
    else
    let s = state_of c in
    match List.assoc_opt fn s.services with
    | None -> Error (Substrate.Fault (Printf.sprintf "no entry point %S" fn))
    | Some service ->
      (match service s.facilities arg with
       | out -> Ok out
       | exception Cheri.Capability_fault m ->
         Error (Substrate.Fault ("capability fault: " ^ m))
       | exception exn -> Error (Substrate.error_of_exn exn))
  in
  let attest _c ~nonce ~claim =
    ignore nonce;
    ignore claim;
    Error "capability machine has no hardware trust anchor"
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
    [ Lt_world.Snapshottable.make ~name:"cheri"
        ~take:(fun () -> Cheri.take_snapshot machine)
        ~digest:(fun () -> Cheri.state_digest machine);
      Substrate.adapter_layer ~name:"substrate:cheri" ~dead ~tables
        ~extra_take:[ (fun () -> Lt_world.Snapshottable.save_ref next_off) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !next_off)
        () ];
  (t, machine, root)
