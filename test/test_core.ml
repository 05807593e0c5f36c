(* The unified isolation interface: one conformance suite, run against
   every substrate adapter — the "POSIX test suite" for isolation. *)

open Lt_crypto
open Lateral

let code = "trusted-component-v1"

(* an invoke result; a failing check prints the error as traces show it *)
let invoked =
  Alcotest.(result string (of_pp (Fmt.of_to_string Substrate.render_error)))

(* a write-once component used across all substrates *)
let services =
  [ ("echo", fun _fac req -> "echo:" ^ req);
    ("put", fun fac req -> fac.Substrate.f_store ~key:"state" req; "stored");
    ("get",
     fun fac _req ->
       Option.value ~default:"EMPTY" (fac.Substrate.f_load ~key:"state"));
    ("seal", fun fac req -> fac.Substrate.f_seal req);
    ("unseal",
     fun fac req ->
       match fac.Substrate.f_unseal req with Some v -> v | None -> "DENIED");
    ("refuse", fun _fac req -> Substrate.fail req);
    ("trip", fun _fac req -> Substrate.dep_crashed ~origin:req "down") ]

type setup = {
  substrate : Substrate.t;
  policy : measurement:string -> Attestation.policy;
  attest_works : bool;
}

let empty_policy ~measurement =
  { Attestation.trusted_cas = [];
    shared_device_keys = [];
    accepted_measurements = [ measurement ] }

let setup_sgx () =
  let machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let rng = Drbg.create 11L in
  let ca = Rsa.generate ~bits:512 rng in
  let t, _cpu = Substrate_sgx.make machine rng ~ca_name:"intel" ~ca_key:ca () in
  { substrate = t;
    policy =
      (fun ~measurement ->
        { (empty_policy ~measurement) with
          Attestation.trusted_cas = [ ("intel", ca.Rsa.pub) ] });
    attest_works = true }

let setup_trustzone () =
  let machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let rng = Drbg.create 12L in
  let vendor = Rsa.generate ~bits:512 rng in
  let device_key = "fused-device-key-0123456789abcdef" in
  Lt_hw.Fuse.program machine.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only device_key;
  let image = Lt_tpm.Boot.sign_stage vendor ~name:"tz-os" "tz-os-code" in
  match
    Substrate_trustzone.make machine ~vendor:vendor.Rsa.pub ~image
      ~device_id:"meter-0001" ~device_key_name:"devkey" ~secure_pages:4
  with
  | Error e -> Alcotest.fail e
  | Ok (t, _tz) ->
    { substrate = t;
      policy =
        (fun ~measurement ->
          { (empty_policy ~measurement) with
            Attestation.shared_device_keys = [ ("meter-0001", device_key) ] });
      attest_works = true }

let setup_sep () =
  let machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let rng = Drbg.create 13L in
  let t, _sep, uid = Substrate_sep.make machine rng ~device_id:"phone-7" ~private_pages:4 in
  { substrate = t;
    policy =
      (fun ~measurement ->
        { (empty_policy ~measurement) with
          Attestation.shared_device_keys = [ ("phone-7", uid) ] });
    attest_works = true }

let setup_flicker () =
  let rng = Drbg.create 14L in
  let ca = Rsa.generate ~bits:512 rng in
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"42" in
  { substrate = Substrate_flicker.make tpm ();
    policy =
      (fun ~measurement ->
        { (empty_policy ~measurement) with
          Attestation.trusted_cas = [ ("tpm-vendor", ca.Rsa.pub) ] });
    attest_works = true }

let setup_kernel () =
  let machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let t, _k =
    Substrate_kernel.make machine (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  { substrate = t; policy = empty_policy; attest_works = false }

let setup_cheri () =
  let rng = Drbg.create 16L in
  let t, _, _ = Substrate_cheri.make rng ~size:(1 lsl 17) () in
  { substrate = t; policy = empty_policy; attest_works = false }

let setup_m3 () =
  let rng = Drbg.create 17L in
  let ca = Rsa.generate ~bits:512 rng in
  let t, _chip = Substrate_m3.make rng ~ca_name:"m3-mfg" ~ca_key:ca ~tiles:8 () in
  { substrate = t;
    policy =
      (fun ~measurement ->
        { (empty_policy ~measurement) with
          Attestation.trusted_cas = [ ("m3-mfg", ca.Rsa.pub) ] });
    attest_works = true }

let setup_kernel_tpm () =
  let machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let rng = Drbg.create 15L in
  let ca = Rsa.generate ~bits:512 rng in
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"43" in
  let t, _k =
    Substrate_kernel.make machine
      (Lt_kernel.Sched.Round_robin { quantum = 500 })
      ~tpm ()
  in
  { substrate = t;
    policy =
      (fun ~measurement ->
        { (empty_policy ~measurement) with
          Attestation.trusted_cas = [ ("tpm-vendor", ca.Rsa.pub) ] });
    attest_works = true }

(* --- the conformance suite -------------------------------------------------- *)

let launch_ok t ~name =
  match t.Substrate.launch ~name ~code ~services with
  | Ok c -> c
  | Error e -> Alcotest.fail ("launch failed: " ^ e)

let conformance setup () =
  let { substrate = t; policy; attest_works } = setup () in
  let c = launch_ok t ~name:"conformance" in
  (* invoke *)
  Alcotest.check invoked "echo" (Ok "echo:hi")
    (t.Substrate.invoke c ~fn:"echo" "hi");
  (match t.Substrate.invoke c ~fn:"missing" "x" with
   | Error (Substrate.Fault _) -> ()
   | Error e -> Alcotest.fail ("unknown entry point: " ^ Substrate.render_error e)
   | Ok _ -> Alcotest.fail "unknown entry point accepted");
  (* the error vocabulary crosses every adapter's hop as the same value *)
  Alcotest.check invoked "refusal" (Error (Substrate.Refused "no"))
    (t.Substrate.invoke c ~fn:"refuse" "no");
  Alcotest.check invoked "dead dependency"
    (Error (Substrate.Dep_crashed { origin = "db"; reason = "down" }))
    (t.Substrate.invoke c ~fn:"trip" "db");
  (* protected store persists across invocations *)
  Alcotest.check invoked "put" (Ok "stored")
    (t.Substrate.invoke c ~fn:"put" "component-state");
  Alcotest.check invoked "get" (Ok "component-state")
    (t.Substrate.invoke c ~fn:"get" "");
  (* sealing roundtrip *)
  (match t.Substrate.invoke c ~fn:"seal" "sealed-payload" with
   | Error e -> Alcotest.fail ("seal failed: " ^ Substrate.render_error e)
   | Ok blob ->
     Alcotest.check invoked "unseal" (Ok "sealed-payload")
       (t.Substrate.invoke c ~fn:"unseal" blob);
     Alcotest.check invoked "garbage unseal denied" (Ok "DENIED")
       (t.Substrate.invoke c ~fn:"unseal" "not-a-sealed-blob"));
  (* measurement prediction *)
  Alcotest.(check string) "measure predicts identity"
    (Sha256.hex (t.Substrate.measure ~code))
    (Sha256.hex (Substrate.component_measurement c));
  (* component store isolation *)
  let c2 = launch_ok t ~name:"other" in
  Alcotest.check invoked "store namespaced per component"
    (Ok "EMPTY")
    (t.Substrate.invoke c2 ~fn:"get" "");
  (* attestation *)
  (match t.Substrate.attest c ~nonce:"n-123" ~claim:"reading=42" with
   | Error e ->
     if attest_works then Alcotest.fail ("attest failed: " ^ e)
   | Ok evidence ->
     if not attest_works then Alcotest.fail "attest unexpectedly succeeded";
     let p = policy ~measurement:(Substrate.component_measurement c) in
     (match Attestation.verify p ~nonce:"n-123" evidence with
      | Ok () -> ()
      | Error f -> Alcotest.fail (Format.asprintf "verify: %a" Attestation.pp_failure f));
     (* stale nonce rejected *)
     (match Attestation.verify p ~nonce:"other-nonce" evidence with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "stale nonce accepted");
     (* doctored claim rejected *)
     let forged = { evidence with Attestation.ev_claim = "reading=9999" } in
     (match Attestation.verify p ~nonce:"n-123" forged with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "doctored claim accepted");
     (* unknown measurement rejected *)
     let p2 = policy ~measurement:(Sha256.digest "some-other-code") in
     (match Attestation.verify p2 ~nonce:"n-123" evidence with
      | Error Attestation.Unknown_measurement -> ()
      | _ -> Alcotest.fail "unknown measurement accepted");
     (* evidence survives the wire *)
     (match Attestation.of_wire (Attestation.to_wire evidence) with
      | Some e2 ->
        (match Attestation.verify p ~nonce:"n-123" e2 with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "wire roundtrip broke evidence")
      | None -> Alcotest.fail "evidence wire decode failed"));
  t.Substrate.crash c2;
  Alcotest.check invoked "killed" (Error (Substrate.Killed "other"))
    (t.Substrate.invoke c2 ~fn:"get" "");
  t.Substrate.destroy c;
  t.Substrate.destroy c2

(* --- substrate-specific expectations --------------------------------------- *)

let test_properties_table () =
  let sgx = (setup_sgx ()).substrate.Substrate.properties in
  let tz = (setup_trustzone ()).substrate.Substrate.properties in
  let sep = (setup_sep ()).substrate.Substrate.properties in
  let flicker = (setup_flicker ()).substrate.Substrate.properties in
  let mk = (setup_kernel ()).substrate.Substrate.properties in
  (* the paper's comparative claims, as assertions *)
  Alcotest.(check bool) "sgx concurrent, flicker serialized" true
    (sgx.Substrate.concurrent_components && not flicker.Substrate.concurrent_components);
  Alcotest.(check bool) "trustzone has no mutual isolation" false
    tz.Substrate.mutually_isolated;
  Alcotest.(check bool) "sgx/sep defend physical memory attacks" true
    (List.mem Substrate.Physical_memory sgx.Substrate.defends
     && List.mem Substrate.Physical_memory sep.Substrate.defends);
  Alcotest.(check bool) "microkernel does not defend physical attacks" false
    (List.mem Substrate.Physical_memory mk.Substrate.defends);
  Alcotest.(check bool) "sgx can be starved" false sgx.Substrate.progress_guaranteed;
  Alcotest.(check bool) "sep has no shared cache" false
    sep.Substrate.shared_cache_with_host;
  Alcotest.(check bool) "sgx shares the cache" true sgx.Substrate.shared_cache_with_host

let test_same_component_all_substrates () =
  (* write once, run anywhere: the same [services] list must behave
     identically everywhere *)
  List.iter
    (fun setup ->
      let { substrate = t; _ } = setup () in
      let c = launch_ok t ~name:"portable" in
      Alcotest.check invoked
        ("portable echo on " ^ t.Substrate.properties.Substrate.substrate_name)
        (Ok "echo:42")
        (t.Substrate.invoke c ~fn:"echo" "42"))
    [ setup_sgx; setup_trustzone; setup_sep; setup_flicker; setup_kernel;
      setup_kernel_tpm; setup_cheri; setup_m3 ]

let test_hmac_evidence_device_unknown () =
  let { substrate = t; _ } = setup_sep () in
  let c = launch_ok t ~name:"x" in
  match t.Substrate.attest c ~nonce:"n" ~claim:"c" with
  | Error e -> Alcotest.fail e
  | Ok ev ->
    let p =
      { Attestation.trusted_cas = [];
        shared_device_keys = [ ("some-other-device", "k") ];
        accepted_measurements = [ Substrate.component_measurement c ] }
    in
    (match Attestation.verify p ~nonce:"n" ev with
     | Error Attestation.Unknown_device -> ()
     | _ -> Alcotest.fail "unknown device accepted")

let test_flicker_requires_residency () =
  let s = setup_flicker () in
  let t = s.substrate in
  let a = launch_ok t ~name:"pal-a" in
  (* attest before any invoke: PAL never ran, PCR17 is not its identity *)
  (match t.Substrate.attest a ~nonce:"n" ~claim:"c" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "attested a PAL that never ran");
  ignore (t.Substrate.invoke a ~fn:"echo" "x");
  (match t.Substrate.attest a ~nonce:"n" ~claim:"c" with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e)

let suite =
  [ Alcotest.test_case "conformance: sgx" `Quick (conformance setup_sgx);
    Alcotest.test_case "conformance: trustzone" `Quick (conformance setup_trustzone);
    Alcotest.test_case "conformance: sep" `Quick (conformance setup_sep);
    Alcotest.test_case "conformance: flicker" `Quick (conformance setup_flicker);
    Alcotest.test_case "conformance: microkernel" `Quick (conformance setup_kernel);
    Alcotest.test_case "conformance: microkernel+tpm" `Quick
      (conformance setup_kernel_tpm);
    Alcotest.test_case "conformance: cheri" `Quick (conformance setup_cheri);
    Alcotest.test_case "conformance: m3-noc" `Quick (conformance setup_m3);
    Alcotest.test_case "properties encode the paper's trade-offs" `Quick
      test_properties_table;
    Alcotest.test_case "one component runs on all substrates" `Quick
      test_same_component_all_substrates;
    Alcotest.test_case "hmac evidence needs a provisioned device" `Quick
      test_hmac_evidence_device_unknown;
    Alcotest.test_case "flicker attests only resident PALs" `Quick
      test_flicker_requires_residency ]
