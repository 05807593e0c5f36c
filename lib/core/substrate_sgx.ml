open Lt_crypto
module Sgx = Lt_sgx.Sgx

exception Enclave_state of Sgx.enclave

let properties =
  { Substrate.substrate_name = "sgx";
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("sgx-microcode", 20_000); ("cpu-hardware", 5_000) ];
    shared_cache_with_host = true;
    progress_guaranteed = false }

let make machine rng ~ca_name ~ca_key ?(epc_pages = 2) () =
  let cpu = Sgx.init_cpu machine rng ~ca_name ~ca_key in
  (* per-component facilities persist across invocations so f_store
     state survives between ecalls *)
  let facilities_cache : (string, Substrate.facilities) Hashtbl.t =
    Hashtbl.create 8
  in
  let tables : (string, (string, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let facilities_of name ctx =
    match Hashtbl.find_opt facilities_cache name with
    | Some fac -> fac
    | None ->
      (* key-value store mirrored into EPC so the bytes physically live
         in encrypted DRAM *)
      let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace tables name table;
      let mirror () =
        let blob =
          Wire.encode
            (Hashtbl.fold (fun k v acc -> Wire.encode [ k; v ] :: acc) table []
             |> List.sort Stdlib.compare)
        in
        if String.length blob <= epc_pages * 4096 then Sgx.mem_write ctx ~off:0 blob
      in
      let fac =
        { Substrate.f_seal = (fun data -> Sgx.seal ctx data);
          f_unseal = (fun wire -> Sgx.unseal ctx wire);
          f_store =
            (fun ~key data ->
              Hashtbl.replace table key data;
              mirror ());
          f_load = (fun ~key -> Hashtbl.find_opt table key) }
      in
      Hashtbl.replace facilities_cache name fac;
      fac
  in
  let enclave_of c =
    match Substrate.component_state c with
    | Enclave_state e -> e
    | _ -> invalid_arg "substrate_sgx: foreign component"
  in
  (* crash = the enclave is torn down where it stands: EPC zeroed and
     freed, volatile store gone. Sealed blobs survive because the seal
     key is derived from the measurement, which a relaunch reproduces. *)
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let crash, is_alive, revive =
    Substrate.lifecycle ~dead
      ~teardown:(fun c ->
        Hashtbl.remove facilities_cache (Substrate.component_name c);
        Hashtbl.remove tables (Substrate.component_name c);
        try Sgx.destroy cpu (enclave_of c) with Invalid_argument _ -> ())
      ()
  in
  let launch ~name ~code ~services =
    let ecalls =
      List.map
        (fun (fn, service) ->
          (fn, fun ctx arg -> Substrate.answer service (facilities_of name ctx) arg))
        services
    in
    try
      let e = Sgx.create_enclave cpu ~name ~code ~epc_pages ~ecalls in
      revive name;
      Ok
        (Substrate.make_component ~name ~measurement:(Sgx.measurement e)
           ~state:(Enclave_state e))
    with Invalid_argument m -> Error m
  in
  let span_attrs = [ ("substrate", "sgx") ] in
  let invoke c ~fn arg =
    if not (is_alive c) then Error (Substrate.Killed (Substrate.component_name c))
    else
      Lt_obs.Trace.with_span ~kind:"ecall"
        ~name:(Lt_obs.Trace.span_name (Substrate.component_name c) fn)
        ~attrs:span_attrs
        (fun () ->
          Substrate.mark_span
            (if Fault_point.fires "sgx/kill-mid-ecall" then begin
               (* the untrusted host pulls the enclave out from under the
                  in-flight ecall (SGX guarantees no progress, §II-C) *)
               crash c;
               Error (Substrate.Killed (Substrate.component_name c))
             end
             else
               match Sgx.ecall cpu (enclave_of c) ~fn arg with
               | Ok reply -> Substrate.reply reply
               | Error e -> Error (Substrate.Fault e)))
  in
  let attest c ~nonce ~claim =
    let e = enclave_of c in
    let ev_no_sig =
      { Attestation.ev_substrate = "sgx";
        ev_measurement = Sgx.measurement e;
        ev_nonce = nonce;
        ev_claim = claim;
        ev_proof =
          Attestation.Rsa_quote { signature = ""; cert = Sgx.quoting_cert cpu } }
    in
    let signature = Sgx.qe_sign cpu ~body:(Attestation.signed_body ev_no_sig) in
    Ok
      { ev_no_sig with
        Attestation.ev_proof =
          Attestation.Rsa_quote { signature; cert = Sgx.quoting_cert cpu } }
  in
  let t =
    { Substrate.properties;
      launch;
      invoke;
      attest;
      measure = (fun ~code -> Sgx.measure_code code);
      destroy =
        (fun c ->
          Hashtbl.remove facilities_cache (Substrate.component_name c);
          Hashtbl.remove tables (Substrate.component_name c);
          Sgx.destroy cpu (enclave_of c));
      crash;
      is_alive;
      snap_layers = [] }
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Lt_world.Snapshottable.make ~name:"sgx"
        ~take:(fun () -> Sgx.take_snapshot cpu)
        ~digest:(fun () -> Sgx.state_digest cpu);
      Substrate.adapter_layer ~name:"substrate:sgx" ~dead ~tables
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_hashtbl facilities_cache) ]
        ~extra_digest:(fun d ->
          (* facilities are closures; their keys pin the cache shape *)
          Lt_world.Snapshottable.digest_hashtbl
            ~key:(fun k -> k)
            ~value:(fun _ -> "")
            facilities_cache d)
        () ];
  (t, cpu)
