open Lt_crypto
open Lt_kernel
open Lt_tpm

type comp_state = {
  task : Kernel.task;
  endpoint : Kernel.endpoint;
  server_tid : int;
}

exception Task_state of comp_state

let measure_code code = Sha256.digest ("microkernel-task|" ^ code)

let store_pages = 2

let properties ~with_tpm =
  { Substrate.substrate_name =
      (if with_tpm then "microkernel+tpm" else "microkernel");
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      ([ Substrate.Remote_software; Substrate.Local_software ]
       @ if with_tpm then [ Substrate.Physical_code_swap ] else []);
    tcb =
      ([ ("microkernel", 10_000); ("mmu+iommu-hardware", 2_000) ]
       @ if with_tpm then [ ("tpm", 5_000) ] else []);
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make machine policy ?tpm ?(boot_pcr = 10) ?(rng = Drbg.create 0x6b65726eL) () =
  let k = Kernel.create machine policy in
  (* software sealing root when no TPM is present: lost at reboot and
     not bound to hardware -- exactly as weak as the paper implies *)
  let session_secret = Drbg.bytes rng 32 in
  let state_of c =
    match Substrate.component_state c with
    | Task_state s -> s
    | _ -> invalid_arg "substrate_kernel: foreign component"
  in
  (* crash = the server thread is killed where it stands; any in-flight
     IPC never gets its reply. The sealing root survives (session secret
     or TPM), so a relaunched instance can unseal its predecessor's
     blobs. *)
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let tables : (string, (string, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let crash, is_alive_mark, revive =
    Substrate.lifecycle ~dead
      ~teardown:(fun c -> Kernel.kill_thread k (state_of c).server_tid)
      ()
  in
  let is_alive c =
    is_alive_mark c && Kernel.thread_alive k (state_of c).server_tid
  in
  let launch ~name ~code ~services =
    let measurement = measure_code code in
    (match tpm with
     | Some tpm -> Tpm.extend tpm boot_pcr measurement
     | None -> ());
    let task = Kernel.create_task k ~name ~partition:name in
    match Kernel.map_memory k task ~vpage:0 ~pages:store_pages Lt_hw.Mmu.rw with
    | Error Kernel.Out_of_frames ->
      Error (Printf.sprintf "launch %s: out of physical frames" name)
    | Ok () ->
    let endpoint = Kernel.create_endpoint k ~name:(name ^ ".ep") in
    let recv_cap =
      Kernel.grant k task endpoint ~rights:{ send = false; recv = true } ~badge:0
    in
    let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.replace tables name table;
    let mirror () =
      (* persist the store into the task's own pages: plain DRAM, which
         is what makes the physical-attack experiment interesting *)
      let blob =
        Wire.encode
          (Hashtbl.fold (fun key v acc -> Wire.encode [ key; v ] :: acc) table []
           |> List.sort Stdlib.compare)
      in
      if String.length blob <= store_pages * Lt_hw.Mmu.page_size then
        User.mem_write ~vaddr:0 blob
    in
    let seal_key =
      match tpm with
      | Some _ -> None (* TPM-backed, below *)
      | None -> Some (Hkdf.derive ~secret:session_secret ~salt:"mk-seal" ~info:measurement 16)
    in
    let facilities =
      { Substrate.f_seal =
          (fun data ->
            match (tpm, seal_key) with
            | Some tpm, _ ->
              Tpm.sealed_to_wire (Tpm.seal tpm ~selection:[ boot_pcr ] data)
            | None, Some key ->
              let nonce = String.sub (Sha256.digest (name ^ data)) 0 Speck.nonce_size in
              Speck.Aead.to_wire (Speck.Aead.encrypt ~key ~nonce ~ad:"mk-seal" data)
            | None, None -> assert false);
        f_unseal =
          (fun wire ->
            match (tpm, seal_key) with
            | Some tpm, _ ->
              Option.bind (Tpm.sealed_of_wire wire) (Tpm.unseal tpm)
            | None, Some key ->
              Option.bind (Speck.Aead.of_wire wire)
                (Speck.Aead.decrypt ~key ~ad:"mk-seal")
            | None, None -> assert false);
        f_store =
          (fun ~key data ->
            Hashtbl.replace table key data;
            mirror ());
        f_load = (fun ~key -> Hashtbl.find_opt table key) }
    in
    let server () =
      let rec loop () =
        let _badge, m, reply = User.recv ~cap:recv_cap in
        let response = Substrate.serve services facilities m.Sys.payload in
        (match reply with
         | Some handle -> User.reply handle (Sys.msg response)
         | None -> ());
        loop ()
      in
      loop ()
    in
    let server_tid = Kernel.create_thread k task ~name:(name ^ ".srv") ~prio:5 server in
    revive name;
    Ok
      (Substrate.make_component ~name ~measurement
         ~state:(Task_state { task; endpoint; server_tid }))
  in
  let invoke_counter = ref 0 in
  let span_attrs =
    [ ("substrate", (properties ~with_tpm:(tpm <> None)).Substrate.substrate_name) ]
  in
  let invoke c ~fn arg =
    let s = state_of c in
    if not (is_alive_mark c) then
      Error (Substrate.Killed (Substrate.component_name c))
    else if not (Kernel.thread_alive k s.server_tid) then
      Error (Substrate.Fault "component destroyed")
    else
      Lt_obs.Trace.with_span ~kind:"ipc-rpc"
        ~name:(Lt_obs.Trace.span_name (Substrate.component_name c) fn)
        ~attrs:span_attrs
        (fun () ->
      incr invoke_counter;
      let client_task =
        Kernel.create_task k
          ~name:(Printf.sprintf "client%d" !invoke_counter)
          ~partition:(Kernel.task_partition s.task)
      in
      let send_cap =
        Kernel.grant k client_task s.endpoint
          ~rights:{ send = true; recv = false } ~badge:!invoke_counter
      in
      let result = ref (Error (Substrate.Fault "component did not reply")) in
      let _ =
        Kernel.create_thread k client_task ~name:"call" ~prio:5 (fun () ->
            let r = User.call ~cap:send_cap (Sys.msg (Substrate.request ~fn arg)) in
            result := Substrate.reply r.Sys.payload)
      in
      (* seeded chaos point: the kernel kills the server task after the
         client has committed to the send — a death mid-IPC, observed by
         the caller as a reply that never comes *)
      if Fault_point.fires "microkernel/kill-mid-ipc" then begin
        Kernel.kill_thread k s.server_tid;
        Lt_obs.Trace.event ~kind:"fault" ~name:"kill-mid-ipc"
          ~attrs:(Lt_obs.Trace.attr "component" (Substrate.component_name c))
          ()
      end;
      ignore (Kernel.run k);
      Substrate.mark_span !result)
  in
  let attest c ~nonce ~claim =
    match tpm with
    | None ->
      Error "microkernel substrate has no hardware trust anchor (attach a TPM)"
    | Some tpm ->
      let ev_no_sig =
        { Attestation.ev_substrate = "microkernel+tpm";
          ev_measurement = Substrate.component_measurement c;
          ev_nonce = nonce;
          ev_claim = claim;
          ev_proof = Attestation.Rsa_quote { signature = ""; cert = Tpm.ek_cert tpm } }
      in
      let signature = Tpm.ak_sign tpm ~body:(Attestation.signed_body ev_no_sig) in
      Ok
        { ev_no_sig with
          Attestation.ev_proof =
            Attestation.Rsa_quote { signature; cert = Tpm.ek_cert tpm } }
  in
  let t =
    { Substrate.properties = properties ~with_tpm:(tpm <> None);
      launch;
      invoke;
      attest;
      measure = (fun ~code -> measure_code code);
      destroy = (fun c -> Kernel.kill_thread k (state_of c).server_tid);
      crash;
      is_alive;
      snap_layers = [] }
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Kernel.layer k;
      Substrate.adapter_layer ~name:"substrate:microkernel" ~dead ~tables
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_ref invoke_counter) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !invoke_counter)
        () ]
    @ (match tpm with Some tpm -> [ Tpm.layer tpm ] | None -> []);
  (t, k)
