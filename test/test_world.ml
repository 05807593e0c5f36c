(* lt_world: copy-on-write snapshots, whole-world fork/restore, the
   deploy fast path, and the hidden-global regressions the snapshot
   work flushed out. *)

open Lt_crypto
open Lateral
module Cow = Lt_world.Cow
module World = Lt_world.World
module D64 = Lt_world.Digest64

(* ---------------------------------------------------------------- *)
(* Cow: snapshot/restore round-trips under arbitrary writes          *)
(* ---------------------------------------------------------------- *)

let cow_len = (3 * Cow.chunk_size) + 137 (* cross chunk boundaries *)

let apply_writes c ws =
  List.iter (fun (pos, ch) -> Cow.set c (pos mod cow_len) ch) ws

let writes_gen = QCheck.(list (pair (int_bound (cow_len - 1)) printable_char))

let prop_cow_snapshot_roundtrip =
  QCheck.Test.make ~name:"cow: snapshot . mutate . restore = id" ~count:100
    QCheck.(pair writes_gen writes_gen)
    (fun (before, after) ->
      let c = Cow.create ~len:cow_len in
      apply_writes c before;
      let d0 = D64.to_hex (Cow.digest c) in
      let s = Cow.snapshot c in
      apply_writes c after;
      Cow.restore c s;
      let first = D64.to_hex (Cow.digest c) = d0 in
      (* a snap survives any number of restores *)
      apply_writes c after;
      Cow.restore c s;
      first && D64.to_hex (Cow.digest c) = d0)

let prop_cow_forks_independent =
  QCheck.Test.make ~name:"cow: two snaps restore independently" ~count:100
    QCheck.(pair writes_gen writes_gen)
    (fun (ws0, ws1) ->
      let c = Cow.create ~len:cow_len in
      apply_writes c ws0;
      let s0 = Cow.snapshot c in
      let d0 = D64.to_hex (Cow.digest c) in
      apply_writes c ws1;
      let s1 = Cow.snapshot c in
      let d1 = D64.to_hex (Cow.digest c) in
      (* writing through one lineage must never leak into the other *)
      Cow.restore c s0;
      Cow.fill c ~pos:0 ~len:cow_len 'Z';
      Cow.restore c s1;
      let r1 = D64.to_hex (Cow.digest c) = d1 in
      Cow.restore c s0;
      r1 && D64.to_hex (Cow.digest c) = d0)

(* ---------------------------------------------------------------- *)
(* a small deployment to fork: microkernel + sgx + sep slice         *)
(* ---------------------------------------------------------------- *)

let make_substrates () =
  let rng = Drbg.create 808L in
  let ca = Rsa.generate ~bits:512 rng in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m3 rng ~device_id:"sep-1" ~private_pages:4 in
  [ ("microkernel", mk); ("sgx", sgx); ("sep", sep) ]

let slice () =
  [ ( Manifest.v ~name:"ui" ~provides:[ "show" ]
        ~connects_to:[ Manifest.conn "tls" "transmit" ]
        ~network_facing:true ~substrate:"microkernel" (),
      fun ctx ~service:_ req ->
        match ctx.Deploy.call_out_typed ~target:"tls" ~service:"transmit" req with
        | Ok r -> "ui:" ^ r
        | Error e -> "ui-error:" ^ App.render_call_error e );
    ( Manifest.v ~name:"tls" ~provides:[ "transmit" ] ~substrate:"sgx" (),
      fun ctx ~service:_ req ->
        (* persistent per-launch state, so restore has something to undo *)
        let n =
          match ctx.Deploy.facilities.Substrate.f_load ~key:"count" with
          | Some v -> int_of_string v
          | None -> 0
        in
        ctx.Deploy.facilities.Substrate.f_store ~key:"count"
          (string_of_int (n + 1));
        Printf.sprintf "sent(%s,%d)" req n );
    ( Manifest.v ~name:"vault" ~provides:[ "get" ] ~substrate:"sep" (),
      fun _ ~service:_ _ -> "secret" ) ]

let deploy_slice () =
  match Deploy.deploy ~substrates:(make_substrates ()) (slice ()) with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let call_ok t ~target ~service req =
  match Deploy.call t ~caller:None ~target ~service req with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)
(* whole-world fork/restore                                          *)
(* ---------------------------------------------------------------- *)

let test_world_fork_restore_digest () =
  let t = deploy_slice () in
  let w = Deploy.world t in
  let d0 = D64.to_hex (World.digest w) in
  let pristine = World.fork w in
  (* mutate across layers: stateful calls, a violation, a crash *)
  ignore (call_ok t ~target:"ui" ~service:"show" "m1");
  ignore (Deploy.call t ~caller:(Some "tls") ~target:"vault" ~service:"get" "x");
  (match Deploy.crash t "tls" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "mutations moved the digest" true
    (D64.to_hex (World.digest w) <> d0);
  World.restore w pristine;
  Alcotest.(check string) "restore rewinds to the pristine digest" d0
    (D64.to_hex (World.digest w));
  Alcotest.(check bool) "tls is alive again" true (Deploy.is_alive t "tls");
  Alcotest.(check int) "violations rewound" 0
    (List.length (Deploy.violations t));
  (* the restored world behaves exactly like a fresh boot *)
  Alcotest.(check string) "first call counts from zero again" "ui:sent(m1,0)"
    (call_ok t ~target:"ui" ~service:"show" "m1")

let test_world_forks_never_alias () =
  let t = deploy_slice () in
  let w = Deploy.world t in
  let s0 = World.fork w in
  let d0 = D64.to_hex (World.digest w) in
  ignore (call_ok t ~target:"ui" ~service:"show" "a");
  let s1 = World.fork w in
  let d1 = D64.to_hex (World.digest w) in
  Alcotest.(check bool) "s0 and s1 capture distinct states" true (d0 <> d1);
  (* thrash the s0 lineage, then prove s1 is untouched, and vice versa *)
  World.restore w s0;
  ignore (call_ok t ~target:"ui" ~service:"show" "b");
  ignore (call_ok t ~target:"ui" ~service:"show" "c");
  World.restore w s1;
  Alcotest.(check string) "s1 unharmed by the s0 lineage" d1
    (D64.to_hex (World.digest w));
  World.restore w s0;
  Alcotest.(check string) "s0 unharmed by the s1 lineage" d0
    (D64.to_hex (World.digest w));
  World.discard w s1

(* ---------------------------------------------------------------- *)
(* hidden-global regressions (state that used to leak across         *)
(* instances through module-level mutable variables)                 *)
(* ---------------------------------------------------------------- *)

let test_sgx_no_cross_cpu_state () =
  (* enclave ids and monotonic counters were once a module global:
     activity on one CPU shifted ids on every other *)
  let rng = Drbg.create 55L in
  let ca = Rsa.generate ~bits:512 rng in
  let mk_cpu () =
    Lt_sgx.Sgx.init_cpu
      (Lt_hw.Machine.create ~dram_pages:128 ())
      rng ~ca_name:"intel" ~ca_key:ca
  in
  let a = mk_cpu () and b = mk_cpu () in
  let db0 = D64.to_hex (Lt_sgx.Sgx.state_digest b) in
  for i = 1 to 3 do
    ignore
      (Lt_sgx.Sgx.create_enclave a
         ~name:(Printf.sprintf "e%d" i)
         ~code:"code" ~epc_pages:2 ~ecalls:[])
  done;
  Alcotest.(check string) "cpu b untouched by cpu a's enclaves" db0
    (D64.to_hex (Lt_sgx.Sgx.state_digest b))

let test_legacy_os_no_cross_guest_state () =
  (* the in-guest call counter was once a module global shared by
     every booted guest *)
  let k =
    Lt_kernel.Kernel.create
      (Lt_hw.Machine.create ~dram_pages:256 ())
      (Lt_kernel.Sched.Round_robin { quantum = 200 })
  in
  let boot name =
    match
      Lt_kernel.Legacy_os.boot k ~name ~partition:name ~memory_pages:4
        ~processes:[ ("echo", fun _ req -> "echo:" ^ req) ]
    with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let g1 = boot "android-a" and g2 = boot "android-b" in
  let d2 = D64.to_hex (Lt_kernel.Legacy_os.state_digest g2) in
  for _ = 1 to 5 do
    ignore (Lt_kernel.Legacy_os.call k g1 ~process:"echo" "x")
  done;
  Alcotest.(check string) "guest b untouched by guest a's calls" d2
    (D64.to_hex (Lt_kernel.Legacy_os.state_digest g2))

(* ---------------------------------------------------------------- *)
(* deploy fast path                                                  *)
(* ---------------------------------------------------------------- *)

let test_resolve_respects_manifest () =
  let t = deploy_slice () in
  Alcotest.(check bool) "external edge to a network-facing comp" true
    (Deploy.resolve t ~caller:None ~target:"ui" ~service:"show" <> None);
  Alcotest.(check bool) "declared edge resolves" true
    (Deploy.resolve t ~caller:(Some "ui") ~target:"tls" ~service:"transmit"
     <> None);
  Alcotest.(check bool) "undeclared edge never gets a route" true
    (Deploy.resolve t ~caller:(Some "ui") ~target:"vault" ~service:"get"
     = None);
  Alcotest.(check bool) "unknown target never gets a route" true
    (Deploy.resolve t ~caller:None ~target:"ghost" ~service:"show" = None);
  Alcotest.(check bool) "unknown service never gets a route" true
    (Deploy.resolve t ~caller:None ~target:"ui" ~service:"steal" = None)

let test_call_fast_matches_slow () =
  let t = deploy_slice () in
  let r =
    match Deploy.resolve t ~caller:None ~target:"ui" ~service:"show" with
    | Some r -> r
    | None -> Alcotest.fail "no route"
  in
  (* first call takes the slow path (captures facilities), later calls
     the fast one; both produce exactly what Deploy.call would *)
  Alcotest.(check string) "first (slow) call" "ui:sent(m,0)"
    (Deploy.call_fast t r "m");
  Alcotest.(check string) "second (fast) call" "ui:sent(m,1)"
    (Deploy.call_fast t r "m");
  Alcotest.(check string) "slow pipeline agrees" "ui:sent(m,2)"
    (call_ok t ~target:"ui" ~service:"show" "m")

let test_call_fast_sees_crash_and_relaunch () =
  let t = deploy_slice () in
  let r =
    match Deploy.resolve t ~caller:None ~target:"ui" ~service:"show" with
    | Some r -> r
    | None -> Alcotest.fail "no route"
  in
  ignore (Deploy.call_fast t r "warm");
  ignore (Deploy.call_fast t r "warm");
  (match Deploy.crash t "ui" with Ok () -> () | Error e -> Alcotest.fail e);
  (match Deploy.call_fast t r "m" with
   | _ -> Alcotest.fail "call into a dead component must fail"
   | exception App.Call_failed _ -> ());
  (match Deploy.relaunch t "ui" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check string) "works again after relaunch" "ui:sent(m,2)"
    (Deploy.call_fast t r "m")

let test_call_fast_zero_alloc () =
  (* a leaf behaviour returning a constant: the untraced fast path
     through it must not touch the minor heap at all *)
  let substrates = make_substrates () in
  let comps =
    [ ( Manifest.v ~name:"echo" ~provides:[ "ping" ] ~network_facing:true
          ~substrate:"microkernel" (),
        fun _ ~service:_ _ -> "pong" ) ]
  in
  let t =
    match Deploy.deploy ~substrates comps with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let r =
    match Deploy.resolve t ~caller:None ~target:"echo" ~service:"ping" with
    | Some r -> r
    | None -> Alcotest.fail "no route"
  in
  ignore (Deploy.call_fast t r "x");
  ignore (Deploy.call_fast t r "x");
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Deploy.call_fast t r "x"))
  done;
  let spent = Gc.minor_words () -. before in
  (* allow the float boxing of [before] itself, nothing per-call *)
  if spent > 64.0 then
    Alcotest.failf "fast path allocated %.0f minor words over %d calls" spent n

(* ---------------------------------------------------------------- *)
(* chaos sessions: rewinding the world must not change a single byte *)
(* ---------------------------------------------------------------- *)

let test_chaos_session_deterministic () =
  let scenario = Lt_load.Load.Meter and seed = 11 and requests = 30 in
  let plan = { Lt_resil.Chaos.no_chaos with kill_pct = 25; mid_ipc_pct = 10 } in
  let render = function
    | Ok (report, _) -> Lt_resil.Chaos.render_report_text report
    | Error e -> Alcotest.fail e
  in
  let fresh =
    render (Lt_resil.Chaos.run ~plan ~scenario ~requests ~seed ())
  in
  let session =
    match Lt_resil.Chaos.session ~scenario ~seed () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let first =
    render (Lt_resil.Chaos.run ~session ~plan ~scenario ~requests ~seed ())
  in
  let second =
    render (Lt_resil.Chaos.run ~session ~plan ~scenario ~requests ~seed ())
  in
  Alcotest.(check string) "session run = sessionless run" fresh first;
  Alcotest.(check string) "session rewinds byte-identically" fresh second

let test_chaos_session_mismatch_is_loud () =
  let session =
    match Lt_resil.Chaos.session ~scenario:Lt_load.Load.Meter ~seed:11 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (match
     Lt_resil.Chaos.run ~session ~scenario:Lt_load.Load.Cloud ~requests:5
       ~seed:11 ()
   with
   | Ok _ -> Alcotest.fail "wrong scenario must be rejected"
   | Error _ -> ());
  match
    Lt_resil.Chaos.run ~session ~scenario:Lt_load.Load.Meter ~requests:5
      ~seed:12 ()
  with
  | Ok _ -> Alcotest.fail "wrong seed must be rejected"
  | Error _ -> ()

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cow_snapshot_roundtrip; prop_cow_forks_independent ]
  @ [ Alcotest.test_case "world: fork/restore digest round-trip" `Quick
        test_world_fork_restore_digest;
      Alcotest.test_case "world: forks never alias" `Quick
        test_world_forks_never_alias;
      Alcotest.test_case "sgx: no cross-cpu hidden state" `Quick
        test_sgx_no_cross_cpu_state;
      Alcotest.test_case "legacy_os: no cross-guest hidden state" `Quick
        test_legacy_os_no_cross_guest_state;
      Alcotest.test_case "deploy: resolve respects the manifest" `Quick
        test_resolve_respects_manifest;
      Alcotest.test_case "deploy: fast call = slow call" `Quick
        test_call_fast_matches_slow;
      Alcotest.test_case "deploy: fast path sees crash/relaunch" `Quick
        test_call_fast_sees_crash_and_relaunch;
      Alcotest.test_case "deploy: untraced fast call is alloc-free" `Quick
        test_call_fast_zero_alloc;
      Alcotest.test_case "chaos: session = sessionless, byte for byte" `Slow
        test_chaos_session_deterministic;
      Alcotest.test_case "chaos: session misuse is an error" `Quick
        test_chaos_session_mismatch_is_loud ]
