(* The fleet: attestation-gated placement, partition-tolerant failover,
   machine-granularity chaos containment. *)

open Lt_fleet
module Trace = Lt_obs.Trace

let all_substrates = [ "microkernel"; "sgx"; "sep" ]

let mk_hosts ?(rogue = []) names =
  List.map
    (fun n ->
      Fleet.host_spec ~rogue:(List.mem n rogue) ~name:n
        ~substrates:all_substrates ())
    names

let mk_fleet ?rogue ?(seed = 7L) names =
  match
    Fleet.create ~seed ~hosts:(mk_hosts ?rogue names)
      ~components:(Fleet_chaos.scenario_components ()) ()
  with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let in_trace f = Trace.with_tracer (Trace.create ()) f

let place_all f =
  match Fleet.place_all f with Ok () -> () | Error e -> Alcotest.fail e

(* the asymmetric-partition + machine-kill + rogue-host scenario the
   issue centres on: everything must stay inside the static prediction *)
let test_chaos_contained () =
  let plan =
    { Fleet_chaos.kill_hosts = [ "host-2" ];
      partitions =
        [ { Fleet_chaos.pt_host = "host-1"; pt_from = 10; pt_heal = 25;
            pt_asym = true } ] }
  in
  match
    Fleet_chaos.run ~plan ~rogue:[ "host-3" ] ~hosts:3 ~requests:40 ~seed:11 ()
  with
  | Error e -> Alcotest.fail e
  | Ok (r, _) ->
    Alcotest.(check bool) "contained" true (Fleet_chaos.contained r);
    Alcotest.(check int) "no unexcused failures" 0 r.Fleet_chaos.fc_failed_unexcused;
    Alcotest.(check int) "rogue host got zero placements" 0
      r.Fleet_chaos.fc_rogue_placements;
    Alcotest.(check int) "observed radius inside static prediction" 0
      (List.length r.Fleet_chaos.fc_radius_escapes);
    Alcotest.(check bool) "the kill forced failovers" true
      (r.Fleet_chaos.fc_failovers <> []);
    Alcotest.(check bool) "asym partition left instances to fence" true
      (r.Fleet_chaos.fc_fenced > 0);
    List.iter
      (fun (_, host) ->
        Alcotest.(check bool) "never placed on the rogue host" true
          (host <> "host-3"))
      r.Fleet_chaos.fc_placements

let test_equal_seeds_byte_identical () =
  let run () =
    let plan =
      { Fleet_chaos.kill_hosts = [ "host-1" ];
        partitions =
          [ { Fleet_chaos.pt_host = "host-2"; pt_from = 5; pt_heal = 20;
              pt_asym = false } ] }
    in
    match Fleet_chaos.run ~plan ~hosts:4 ~requests:30 ~seed:3 () with
    | Error e -> Alcotest.fail e
    | Ok (r, _) ->
      (Fleet_chaos.render_report_text r, Fleet_chaos.render_report_json r)
  in
  let t1, j1 = run () in
  let t2, j2 = run () in
  Alcotest.(check string) "text reports byte-identical" t1 t2;
  Alcotest.(check string) "json reports byte-identical" j1 j2

let test_repro_roundtrip () =
  let repro =
    { Fleet_chaos.rp_hosts = 5; rp_rogue = [ "host-4"; "host-5" ];
      rp_requests = 17; rp_seed = 42;
      rp_plan =
        { Fleet_chaos.kill_hosts = [ "host-1"; "host-2" ];
          partitions =
            [ { Fleet_chaos.pt_host = "host-3"; pt_from = 3; pt_heal = 9;
                pt_asym = true };
              { Fleet_chaos.pt_host = "host-1"; pt_from = 4; pt_heal = 0;
                pt_asym = false } ] } }
  in
  match Fleet_chaos.parse_repro (Fleet_chaos.render_repro repro) with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check bool) "roundtrips" true (r = repro)

let test_corpus_repro_contained () =
  match Fleet_chaos.load_repro "corpus/fleet_partition_asym.repro" with
  | Error e -> Alcotest.fail e
  | Ok rp ->
    (match
       Fleet_chaos.run ~plan:rp.Fleet_chaos.rp_plan
         ~rogue:rp.Fleet_chaos.rp_rogue ~hosts:rp.Fleet_chaos.rp_hosts
         ~requests:rp.Fleet_chaos.rp_requests ~seed:rp.Fleet_chaos.rp_seed ()
     with
     | Error e -> Alcotest.fail e
     | Ok (r, _) ->
       Alcotest.(check bool) "corpus reproducer stays contained" true
         (Fleet_chaos.contained r);
       Alcotest.(check bool) "reproducer exercises fencing" true
         (r.Fleet_chaos.fc_fenced > 0))

(* with every trustworthy host dead, the only reachable host fails
   attestation: clusters are given up, never revived on the rogue *)
let test_no_revival_on_attest_failure () =
  in_trace (fun () ->
      let f = mk_fleet ~rogue:[ "host-3" ] [ "host-1"; "host-2"; "host-3" ] in
      place_all f;
      Alcotest.(check int) "rogue placements zero after place_all" 0
        (Fleet.rogue_placements f);
      (match Fleet.kill_host f "host-1" with
       | Ok () -> () | Error e -> Alcotest.fail e);
      (match Fleet.kill_host f "host-2" with
       | Ok () -> () | Error e -> Alcotest.fail e);
      (* the controller only learns of the deaths through transport
         faults, so probe each cluster once to trip them *)
      List.iter
        (fun (target, service) ->
          match Fleet.call f ~target ~service "probe" with
          | Ok _ -> Alcotest.fail "call succeeded on a dead fleet"
          | Error _ -> ())
        [ ("gate", "ingress"); ("vault", "seal"); ("audit", "log") ];
      Fleet.sweep f;
      Alcotest.(check bool) "rogue host saw attestation failures" true
        (Fleet.attest_failures f > 0);
      Alcotest.(check int) "still zero rogue placements" 0
        (Fleet.rogue_placements f);
      List.iter
        (fun (c, _) ->
          Alcotest.(check (option string))
            (c ^ " not revived anywhere") None (Fleet.owner f c))
        (Fleet.clusters f);
      Alcotest.(check bool) "clusters given up, not lost track of" true
        (Fleet.unplaced f <> []))

(* evidence is never cached across a partition: the healed host proves
   itself again, bumping its attested-session epoch *)
let test_reattestation_after_heal () =
  in_trace (fun () ->
      let f = mk_fleet [ "host-1"; "host-2"; "host-3" ] in
      place_all f;
      let cluster, members =
        match Fleet.clusters f with
        | (c, ms) :: _ -> (c, ms)
        | [] -> Alcotest.fail "no clusters"
      in
      let owner0 =
        match Fleet.owner f cluster with
        | Some h -> h
        | None -> Alcotest.fail "cluster unplaced"
      in
      let epochs h = List.assoc h (Fleet.host_epochs f) in
      let before = epochs owner0 in
      Fleet.partition f ~host:owner0 ();
      (* the next call trips a transport fault and fails over *)
      (match Fleet.call f ~target:(List.hd members) ~service:"ingress" "x" with
       | Ok _ | Error _ -> ());
      Fleet.sweep f;
      let owner1 =
        match Fleet.owner f cluster with
        | Some h -> h
        | None -> Alcotest.fail "cluster lost during failover"
      in
      Alcotest.(check bool) "failover moved the cluster" true (owner1 <> owner0);
      Alcotest.(check bool) "partitioned host is unlinked" true
        (not (Fleet.host_connected f owner0));
      Fleet.heal f ~host:owner0;
      Fleet.sweep f;
      Alcotest.(check bool) "healed host reconnected" true
        (Fleet.host_connected f owner0);
      Alcotest.(check int) "reconnect re-attested (fresh epoch)" (before + 1)
        (epochs owner0);
      Alcotest.(check (list (pair string int)))
        "every epoch is a fresh attestation" (Fleet.host_epochs f)
        (Fleet.host_attests f))

(* an asymmetric cut lets a placement succeed invisibly; reconcile after
   the heal must destroy the stale instance *)
let test_asym_partition_fencing () =
  in_trace (fun () ->
      let f = mk_fleet [ "host-1"; "host-2"; "host-3" ] in
      place_all f;
      let cluster, members =
        match Fleet.clusters f with
        | (c, ms) :: _ -> (c, ms)
        | [] -> Alcotest.fail "no clusters"
      in
      let owner0 =
        match Fleet.owner f cluster with
        | Some h -> h
        | None -> Alcotest.fail "cluster unplaced"
      in
      Fleet.partition f ~host:owner0 ~asym:true ();
      (match Fleet.call f ~target:(List.hd members) ~service:"ingress" "x" with
       | Ok _ | Error _ -> ());
      Fleet.sweep f;
      Alcotest.(check int) "nothing fenced while still cut" 0 (Fleet.fenced f);
      Fleet.heal f ~host:owner0;
      Fleet.sweep f;
      Alcotest.(check bool) "stale instances fenced after heal" true
        (Fleet.fenced f > 0))

let test_create_rejects_bad_specs () =
  let comps = Fleet_chaos.scenario_components () in
  let bad specs =
    match Fleet.create ~seed:1L ~hosts:specs ~components:comps () with
    | Ok _ -> Alcotest.fail "bad fleet accepted"
    | Error e -> Alcotest.(check bool) "error is descriptive" true
                   (String.length e > 0)
  in
  bad [ Fleet.host_spec ~name:"a" ~substrates:[ "microkernel" ] () ];
  bad
    [ Fleet.host_spec ~name:"a" ~substrates:all_substrates ();
      Fleet.host_spec ~name:"a" ~substrates:all_substrates () ];
  bad [ Fleet.host_spec ~name:"fleet" ~substrates:all_substrates () ];
  bad [ Fleet.host_spec ~name:"a" ~substrates:[ "sgx"; "qemu" ] () ]

let suite =
  [ Alcotest.test_case "chaos run stays contained" `Quick test_chaos_contained;
    Alcotest.test_case "equal seeds give byte-identical reports" `Quick
      test_equal_seeds_byte_identical;
    Alcotest.test_case "repro files roundtrip" `Quick test_repro_roundtrip;
    Alcotest.test_case "corpus reproducer replays contained" `Quick
      test_corpus_repro_contained;
    Alcotest.test_case "no revival on attestation failure" `Quick
      test_no_revival_on_attest_failure;
    Alcotest.test_case "reconnect re-attests after heal" `Quick
      test_reattestation_after_heal;
    Alcotest.test_case "asym partition leaves fenced instances" `Quick
      test_asym_partition_fencing;
    Alcotest.test_case "create rejects bad host specs" `Quick
      test_create_rejects_bad_specs ]
