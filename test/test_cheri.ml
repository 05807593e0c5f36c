(* CHERI capability machine: guarded pointers, monotonic derivation,
   sealing, and the buffer-overflow containment the paper cites. *)

module Cheri = Lt_cheri.Cheri

let rw = { Cheri.load = true; store = true }

let ro = { Cheri.load = true; store = false }

let test_basic_load_store () =
  let m = Cheri.create ~size:4096 in
  let root = Cheri.root m in
  Cheri.store m root ~off:100 "hello";
  Alcotest.(check string) "roundtrip" "hello" (Cheri.load m root ~off:100 ~len:5)

let test_bounds_enforced () =
  let m = Cheri.create ~size:4096 in
  let view = Cheri.derive (Cheri.root m) ~off:0 ~len:64 ~perms:rw in
  Cheri.store m view ~off:0 (String.make 64 'x');
  Alcotest.check_raises "read past bounds"
    (Cheri.Capability_fault "load out of bounds: off=0 len=65 cap-len=64")
    (fun () -> ignore (Cheri.load m view ~off:0 ~len:65));
  Alcotest.(check bool) "write past bounds" true
    (try Cheri.store m view ~off:60 "xxxxx"; false
     with Cheri.Capability_fault _ -> true);
  Alcotest.(check bool) "negative offset" true
    (try ignore (Cheri.load m view ~off:(-1) ~len:1); false
     with Cheri.Capability_fault _ -> true)

let test_monotonic_derivation () =
  let m = Cheri.create ~size:4096 in
  let small = Cheri.derive (Cheri.root m) ~off:128 ~len:64 ~perms:ro in
  (* shrinking further is fine *)
  let smaller = Cheri.derive small ~off:8 ~len:8 ~perms:ro in
  Alcotest.(check int) "base accumulates" (128 + 8) (Cheri.base smaller);
  (* growing bounds is a fault *)
  Alcotest.(check bool) "cannot grow bounds" true
    (try ignore (Cheri.derive small ~off:0 ~len:128 ~perms:ro); false
     with Cheri.Capability_fault _ -> true);
  (* adding permissions is a fault *)
  Alcotest.(check bool) "cannot add store perm" true
    (try ignore (Cheri.derive small ~off:0 ~len:8 ~perms:rw); false
     with Cheri.Capability_fault _ -> true);
  (* read-only means read-only *)
  Alcotest.(check bool) "ro view cannot store" true
    (try Cheri.store m small ~off:0 "x"; false
     with Cheri.Capability_fault _ -> true)

let test_sealing_and_invoke () =
  let m = Cheri.create ~size:4096 in
  let root = Cheri.root m in
  Cheri.store m root ~off:0 "compartment-data";
  let data = Cheri.derive root ~off:0 ~len:16 ~perms:ro in
  let code = Cheri.derive root ~off:1024 ~len:16 ~perms:ro in
  let sealed_data = Cheri.seal m data ~otype:7 in
  let sealed_code = Cheri.seal m code ~otype:7 in
  Alcotest.(check bool) "sealed" true (Cheri.is_sealed sealed_data);
  (* sealed caps are unusable directly *)
  Alcotest.(check bool) "sealed load faults" true
    (try ignore (Cheri.load m sealed_data ~off:0 ~len:4); false
     with Cheri.Capability_fault _ -> true);
  Alcotest.(check bool) "sealed derive faults" true
    (try ignore (Cheri.derive sealed_data ~off:0 ~len:4 ~perms:ro); false
     with Cheri.Capability_fault _ -> true);
  (* invoke with matching types unseals for the callee *)
  let result =
    Cheri.invoke m ~code:sealed_code ~data:sealed_data (fun unsealed ->
        Cheri.load m unsealed ~off:0 ~len:16)
  in
  Alcotest.(check string) "ccall" "compartment-data" result;
  (* mismatched types refuse *)
  let other = Cheri.seal m code ~otype:9 in
  Alcotest.(check bool) "otype mismatch" true
    (try Cheri.invoke m ~code:other ~data:sealed_data (fun _ -> ()); false
     with Cheri.Capability_fault _ -> true)

let test_overflow_containment () =
  (* the experiment in miniature: a parser compartment gets a view of the
     packet only; adjacent secrets are out of its reach *)
  let m = Cheri.create ~size:4096 in
  let root = Cheri.root m in
  Cheri.store m root ~off:0 (String.make 64 'P');        (* packet *)
  Cheri.store m root ~off:64 "ADJACENT-SECRET-KEY";      (* neighbour *)
  (* conventional machine: overflowing read succeeds *)
  let overread = Cheri.flat_read m ~addr:0 ~len:84 in
  Alcotest.(check bool) "flat memory leaks the neighbour" true
    (String.length overread = 84
     && String.sub overread 64 15 = "ADJACENT-SECRET");
  (* capability machine: same read traps *)
  let packet_view = Cheri.derive root ~off:0 ~len:64 ~perms:ro in
  Alcotest.(check bool) "guarded pointer traps the overread" true
    (try ignore (Cheri.load m packet_view ~off:0 ~len:84); false
     with Cheri.Capability_fault _ -> true)

let test_substrate_adapter () =
  let rng = Lt_crypto.Drbg.create 88L in
  let t, _, _ = Lateral.Substrate_cheri.make rng ~size:(1 lsl 16) () in
  match
    t.Lateral.Substrate.launch ~name:"c" ~code:"c1"
      ~services:
        [ ("put", fun fac r -> fac.Lateral.Substrate.f_store ~key:"k" r; "ok");
          ("get",
           fun fac _ ->
             Option.value ~default:"EMPTY" (fac.Lateral.Substrate.f_load ~key:"k")) ]
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check (result string string)) "put" (Ok "ok")
      (Result.map_error Lateral.Substrate.render_error
         (t.Lateral.Substrate.invoke c ~fn:"put" "v"));
    Alcotest.(check (result string string)) "get" (Ok "v")
      (Result.map_error Lateral.Substrate.render_error
         (t.Lateral.Substrate.invoke c ~fn:"get" ""));
    (match t.Lateral.Substrate.attest c ~nonce:"n" ~claim:"c" with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "capability machine should not attest")

let test_out_of_memory () =
  let rng = Lt_crypto.Drbg.create 89L in
  let t, _, _ = Lateral.Substrate_cheri.make rng ~size:8192 () in
  let launch name =
    t.Lateral.Substrate.launch ~name ~code:"c" ~services:[ ("f", fun _ x -> x) ]
  in
  (match launch "first" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match launch "second" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "should be out of compartment memory")

let suite =
  [ Alcotest.test_case "load/store through capabilities" `Quick test_basic_load_store;
    Alcotest.test_case "bounds enforced" `Quick test_bounds_enforced;
    Alcotest.test_case "derivation is monotone" `Quick test_monotonic_derivation;
    Alcotest.test_case "sealing and invoke (CCall)" `Quick test_sealing_and_invoke;
    Alcotest.test_case "buffer overflow contained" `Quick test_overflow_containment;
    Alcotest.test_case "substrate adapter" `Quick test_substrate_adapter;
    Alcotest.test_case "compartment memory exhausted" `Quick test_out_of_memory ]
