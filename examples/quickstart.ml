(* Quickstart: write a trusted component once, run it on any isolation
   substrate through the unified interface, and verify it remotely.

   Run with: dune exec examples/quickstart.exe *)

open Lt_crypto
open Lateral

(* 1. A trusted component: a tiny password vault. It is written purely
   against Substrate.facilities — nothing here is substrate-specific. *)
let vault_code = "password-vault-v1"

let vault_services =
  [ ("store",
     fun fac req ->
       (* req = "site password"; keep it under substrate protection *)
       (match String.index_opt req ' ' with
        | Some i ->
          let site = String.sub req 0 i in
          let password = String.sub req (i + 1) (String.length req - i - 1) in
          fac.Substrate.f_store ~key:site (fac.Substrate.f_seal password);
          "stored"
        | None -> "usage: store <site> <password>"));
    ("check",
     fun fac req ->
       (match String.index_opt req ' ' with
        | Some i ->
          let site = String.sub req 0 i in
          let guess = String.sub req (i + 1) (String.length req - i - 1) in
          (match fac.Substrate.f_load ~key:site with
           | None -> "unknown site"
           | Some sealed ->
             (match fac.Substrate.f_unseal sealed with
              | Some password when password = guess -> "match"
              | Some _ -> "wrong password"
              | None -> "vault corrupted"))
        | None -> "usage: check <site> <password>")) ]

let demo name (substrate : Substrate.t) =
  Printf.printf "--- %s ---\n" name;
  Printf.printf "properties: %s\n"
    (Format.asprintf "%a" Substrate.pp_properties substrate.Substrate.properties);
  match substrate.Substrate.launch ~name:"vault" ~code:vault_code
          ~services:vault_services with
  | Error e -> Printf.printf "launch failed: %s\n" e
  | Ok vault ->
    let invoke fn arg =
      match substrate.Substrate.invoke vault ~fn arg with
      | Ok r -> r
      | Error e -> "ERROR: " ^ Substrate.render_error e
    in
    Printf.printf "store:  %s\n" (invoke "store" "example.org hunter2");
    Printf.printf "check (right): %s\n" (invoke "check" "example.org hunter2");
    Printf.printf "check (wrong): %s\n" (invoke "check" "example.org 12345");
    (* remote attestation: prove which code is answering *)
    (match substrate.Substrate.attest vault ~nonce:"fresh-42" ~claim:"api-v1" with
     | Ok evidence ->
       Printf.printf "attested measurement: %s...\n"
         (String.sub (Sha256.hex evidence.Attestation.ev_measurement) 0 16)
     | Error e -> Printf.printf "attest: %s\n" e);
    print_newline ()

let () =
  let rng = Drbg.create 2026L in
  let ca = Rsa.generate ~bits:512 rng in
  (* the same component on three different isolation technologies *)
  let m1 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m1 rng ~ca_name:"intel" ~ca_key:ca () in
  demo "Intel SGX" sgx;

  let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  let image = Lt_tpm.Boot.sign_stage ca ~name:"tz-os" "secure-world-v1" in
  (match Substrate_trustzone.make m2 ~vendor:ca.Rsa.pub ~image ~device_id:"dev-1"
           ~device_key_name:"devkey" ~secure_pages:4 with
   | Ok (tz, _) -> demo "ARM TrustZone" tz
   | Error e -> Printf.printf "trustzone boot failed: %s\n" e);

  let m3 = Lt_hw.Machine.create ~dram_pages:128 () in
  let mk, _ =
    Substrate_kernel.make m3 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  demo "Microkernel (no trust anchor: attest fails by design)" mk;

  print_endline "quickstart done."
