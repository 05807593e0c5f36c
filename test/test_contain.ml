(* Static blast-radius analysis: propagation edges, per-root radii,
   escape witnesses, the fleet verdict, and the incremental engine's
   byte-identical containment state. *)

open Lateral

let conn = Manifest.conn

let m = Manifest.v

let restarting = { (Manifest.default_restart Manifest.On_failure) with
                   Manifest.r_max = 3 }

let radius_of r root =
  match List.find_opt (fun x -> x.Contain.r_root = root) r.Contain.radii with
  | Some x -> x
  | None -> Alcotest.fail ("no radius for " ^ root)

let hit r root victim =
  Option.map Contain.impact_to_string
    (List.assoc_opt victim (radius_of r root).Contain.r_hit)

let impact = Alcotest.(option string)

(* --- per-edge-kind semantics --- *)

let test_channel_bounded () =
  (* supervised default: a dead callee degrades the caller, no worse —
     and vetting is no shield (it declassifies data, not liveness) *)
  let r =
    Contain.analyze
      [ m ~name:"a" ~connects_to:[ conn "b" "s" ] ();
        m ~name:"v" ~connects_to:[ conn ~vetted:true "b" "s" ] ();
        m ~name:"b" ~provides:[ "s" ] () ]
  in
  Alcotest.check impact "caller degraded" (Some "degraded") (hit r "b" "a");
  Alcotest.check impact "vetted caller degraded too" (Some "degraded")
    (hit r "b" "v");
  Alcotest.check impact "callee fails itself" (Some "failed") (hit r "b" "b");
  Alcotest.check impact "no reverse propagation" None (hit r "a" "b")

let test_channel_blocked_unsupervised () =
  (* without the supervisor's deadlines and breakers a caller blocks
     forever on a dead callee: Failed propagates as Failed *)
  let fleet =
    [ m ~name:"a" ~connects_to:[ conn "b" "s" ] ();
      m ~name:"b" ~provides:[ "s" ] () ]
  in
  let unsup =
    Contain.analyze
      ~config:{ Contain.default_config with Contain.supervised = false }
      fleet
  in
  Alcotest.check impact "caller blocks forever" (Some "failed")
    (hit unsup "b" "a");
  let sup = Contain.analyze fleet in
  Alcotest.check impact "supervision bounds it" (Some "degraded")
    (hit sup "b" "a")

let test_domain_cofate () =
  (* cohabitants die with the domain and then suffer their own crash
     impact: the restarting one comes back, the bare one stays dead *)
  let r =
    Contain.analyze
      [ m ~name:"a" ~domain:"shared" ();
        m ~name:"bare" ~domain:"shared" ();
        m ~name:"healed" ~domain:"shared" ~restart:restarting () ]
  in
  Alcotest.check impact "unsupervised cohabitant fails" (Some "failed")
    (hit r "a" "bare");
  Alcotest.check impact "restarting cohabitant restarts" (Some "restarted")
    (hit r "a" "healed")

let test_substrate_exclusive () =
  (* flicker runs one DRTM session at a time: a crash in the slice
     stalls cohabitants on other domains, but only degrades them *)
  let r =
    Contain.analyze
      [ m ~name:"a" ~substrate:"flicker" ();
        m ~name:"b" ~substrate:"flicker" () ]
  in
  Alcotest.check impact "exclusive substrate degrades" (Some "degraded")
    (hit r "a" "b");
  let micro =
    Contain.analyze
      [ m ~name:"a" ~substrate:"microkernel" ();
        m ~name:"b" ~substrate:"microkernel" () ]
  in
  Alcotest.check impact "concurrent substrate does not" None
    (hit micro "a" "b")

let test_state_loss_edge () =
  (* unvetted dependence on stateful, never-healing state is an edge;
     a vetted wrapper or an effective restart policy removes it *)
  let edges ms =
    List.filter
      (fun e -> e.Contain.p_kind = Contain.State_loss)
      (Contain.prop_edges Contain.default_config ms)
  in
  let stateful_target restart vetted =
    [ m ~name:"store" ~provides:[ "io" ] ~stateful:true ?restart ();
      m ~name:"user" ~connects_to:[ conn ~vetted "store" "io" ] () ]
  in
  (match edges (stateful_target None false) with
   | [ e ] ->
     Alcotest.(check string) "src is the stateful component" "store"
       e.Contain.p_src;
     Alcotest.(check string) "dst is the dependent" "user" e.Contain.p_dst
   | es -> Alcotest.fail (Printf.sprintf "expected 1 state-loss edge, got %d"
                            (List.length es)));
  Alcotest.(check int) "vetting shields the dependent" 0
    (List.length (edges (stateful_target None true)));
  Alcotest.(check int) "an effective restart policy heals the state" 0
    (List.length (edges (stateful_target (Some restarting) false)))

let test_restart_storm () =
  (* a channel cycle inside one domain, both auto-restarting: every
     respawn re-kills the peer until the budgets give up *)
  let r =
    Contain.analyze
      [ m ~name:"a" ~domain:"d" ~restart:restarting ~provides:[ "s" ]
          ~connects_to:[ conn "b" "s" ] ();
        m ~name:"b" ~domain:"d" ~restart:restarting ~provides:[ "s" ]
          ~connects_to:[ conn "a" "s" ] () ]
  in
  Alcotest.check impact "the peer ends up failed" (Some "failed")
    (hit r "a" "b");
  Alcotest.check impact "the root escalates past its own restart"
    (Some "failed") (hit r "a" "a");
  (* split the cycle across two domains: no storm, both just restart *)
  let calm =
    Contain.analyze
      [ m ~name:"a" ~domain:"d1" ~restart:restarting ~provides:[ "s" ]
          ~connects_to:[ conn "b" "s" ] ();
        m ~name:"b" ~domain:"d2" ~restart:restarting ~provides:[ "s" ]
          ~connects_to:[ conn "a" "s" ] () ]
  in
  Alcotest.check impact "cross-domain cycle stays calm" (Some "degraded")
    (hit calm "a" "b")

(* --- escapes, witnesses and the verdict --- *)

let escape_fleet =
  (* core's crash never heals and degrades edge, in another domain,
     through a two-hop channel chain *)
  [ m ~name:"edge" ~domain:"outer" ~connects_to:[ conn "mid" "s" ] ();
    m ~name:"mid" ~domain:"inner" ~provides:[ "s" ]
      ~connects_to:[ conn "core" "s" ] ();
    m ~name:"core" ~domain:"inner" ~provides:[ "s" ] () ]

let test_escape_witness () =
  let r = Contain.analyze escape_fleet in
  match (radius_of r "core").Contain.r_escape with
  | None -> Alcotest.fail "core's crash must escape its domain"
  | Some x ->
    Alcotest.(check string) "worst outside victim" "edge" x.Contain.x_victim;
    Alcotest.(check int) "outside victim count" 1 x.Contain.x_outside;
    Alcotest.(check (list string)) "witness path root-to-victim"
      [ "core"; "mid"; "edge" ] x.Contain.x_path;
    (match r.Contain.verdict with
     | Contain.Uncontained roots ->
       Alcotest.(check bool) "core among the escape roots" true
         (List.mem "core" roots)
     | Contain.Contained -> Alcotest.fail "fleet must be uncontained")

(* "mid" is in domain inner too, so its victim count counts only edge *)

let test_restart_contains () =
  let healed =
    List.map
      (fun c ->
        if c.Manifest.name = "edge" then c
        else { c with Manifest.restart = Some restarting })
      escape_fleet
  in
  match (Contain.analyze healed).Contain.verdict with
  | Contain.Contained -> ()
  | Contain.Uncontained roots ->
    Alcotest.fail ("still uncontained: " ^ String.concat ", " roots)

let test_noncrashable_roots_exempt () =
  (* sep is dedicated hardware: it does not crash with the host stack,
     so it is never an escape root even without a restart policy *)
  let r =
    Contain.analyze
      [ m ~name:"edge" ~domain:"outer" ~connects_to:[ conn "sepd" "s" ] ();
        m ~name:"sepd" ~domain:"inner" ~substrate:"sep" ~provides:[ "s" ] () ]
  in
  Alcotest.(check bool) "sep root has no escape" true
    ((radius_of r "sepd").Contain.r_escape = None);
  Alcotest.(check bool) "fleet contained" true
    (r.Contain.verdict = Contain.Contained)

(* --- determinism, totality, registry --- *)

let test_deterministic () =
  let r1 = Contain.analyze escape_fleet and r2 = Contain.analyze escape_fleet in
  Alcotest.(check bool) "structurally equal" true (r1 = r2);
  Alcotest.(check string) "byte-identical text"
    (Contain.render_text ~file:"f" r1) (Contain.render_text ~file:"f" r2);
  Alcotest.(check string) "byte-identical json"
    (Contain.render_json ~file:"f" r1) (Contain.render_json ~file:"f" r2)

let test_edge_kind_registry () =
  let kinds =
    [ Contain.Channel_bounded; Contain.Channel_blocked; Contain.Domain_cofate;
      Contain.Substrate_exclusive; Contain.State_loss; Contain.Restart_storm ]
  in
  List.iter
    (fun k ->
      let name = Contain.kind_to_string k in
      Alcotest.(check bool) (name ^ " in edge_kinds") true
        (List.mem_assoc name Contain.edge_kinds))
    kinds;
  Alcotest.(check int) "registry has no extra rows" (List.length kinds)
    (List.length Contain.edge_kinds)

let gen_fleet =
  (* inconsistent on purpose: dangling targets, duplicate names, unknown
     substrates, self-ish cycles — analyze must stay total on all of it *)
  QCheck.Gen.(
    let name = oneofl [ "a"; "b"; "c"; "d"; "ghost" ] in
    let manifest =
      tup5 name (oneofl [ "a"; "b"; "c"; "d"; "x" ])
        (oneofl [ "microkernel"; "sep"; "flicker"; "weird"; "monolithic-os" ])
        (tup2 bool (oneofl [ None; Some Manifest.Never; Some Manifest.On_failure ]))
        (list_size (int_range 0 3) (tup2 name bool))
      >|= fun (n, dom, sub, (stateful, pol), conns) ->
      Manifest.v ~name:n ~domain:dom ~substrate:sub ~stateful
        ?restart:(Option.map Manifest.default_restart pol)
        ~provides:[ "s" ]
        ~connects_to:(List.map (fun (t, v) -> conn ~vetted:v t "s") conns)
        ()
    in
    list_size (int_range 0 6) manifest)

let prop_analyze_total =
  QCheck.Test.make ~count:200 ~name:"analyze total and self-inclusive"
    (QCheck.make gen_fleet)
    (fun fleet ->
      let r = Contain.analyze fleet in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (x : Contain.radius) ->
          if not (Hashtbl.mem seen x.Contain.r_root) then
            Hashtbl.replace seen x.Contain.r_root x)
        r.Contain.radii;
      List.for_all
        (fun mf ->
          match Hashtbl.find_opt seen mf.Manifest.name with
          | None -> QCheck.Test.fail_reportf "%s has no radius" mf.Manifest.name
          | Some x ->
            (match List.assoc_opt x.Contain.r_root x.Contain.r_hit with
             | None ->
               QCheck.Test.fail_reportf "%s outside its own radius"
                 x.Contain.r_root
             | Some im ->
               Contain.rank im >= Contain.rank x.Contain.r_self
               || QCheck.Test.fail_reportf "%s below its own crash impact"
                    x.Contain.r_root))
        fleet)

let prop_supervision_only_shrinks =
  QCheck.Test.make ~count:200 ~name:"supervised radii inside unsupervised"
    (QCheck.make gen_fleet)
    (fun fleet ->
      let sup = Contain.analyze fleet in
      let unsup =
        Contain.analyze
          ~config:{ Contain.default_config with Contain.supervised = false }
          fleet
      in
      List.for_all
        (fun (x : Contain.radius) ->
          match
            List.find_opt
              (fun u -> u.Contain.r_root = x.Contain.r_root)
              unsup.Contain.radii
          with
          | None -> QCheck.Test.fail_reportf "missing unsupervised radius"
          | Some u ->
            List.for_all
              (fun (victim, im) ->
                match List.assoc_opt victim u.Contain.r_hit with
                | None ->
                  QCheck.Test.fail_reportf "%s -> %s only under supervision"
                    x.Contain.r_root victim
                | Some uim -> Contain.rank uim >= Contain.rank im)
              x.Contain.r_hit)
        sup.Contain.radii)

(* --- the incremental engine maintains the same analysis --- *)

let apply_script st script =
  match Delta.parse_script script with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    List.fold_left
      (fun st d ->
        let st, _ = Check.apply d st in
        (match Check.divergence st with
         | None -> ()
         | Some why ->
           Alcotest.fail (Printf.sprintf "%s: %s" (Delta.describe d) why));
        st)
      st ds

let test_incremental_contain () =
  let st = Check.create escape_fleet in
  (match Check.divergence st with
   | None -> ()
   | Some why -> Alcotest.fail ("baseline: " ^ why));
  let st =
    apply_script st
      {|
add
component core
  provides s
  restart on-failure 3 256

update
component burst
  domain inner
  restart always 2
  provides s
  connects mid.s

connect mid burst.s
disconnect edge mid.s
remove burst
connect-vetted edge mid.s
|}
  in
  (* the final fleet's contain state equals the batch analysis *)
  let batch = Contain.analyze (Check.manifests st) in
  Alcotest.(check bool) "incremental = batch, structurally" true
    (Check.contain_result st = batch)

let test_dirty_roots_scoped () =
  (* edges run core -> mid -> leaf; touching the leaf dirties every
     root whose radius can contain it, and nothing else *)
  let cfg = Contain.default_config in
  let fleet =
    [ m ~name:"core" ~provides:[ "s" ] ();
      m ~name:"mid" ~provides:[ "s" ] ~connects_to:[ conn "core" "s" ] ();
      m ~name:"leaf" ~connects_to:[ conn "mid" "s" ] ();
      m ~name:"island" ~provides:[ "s" ] () ]
  in
  let edges = Contain.prop_edges cfg fleet in
  let dirty =
    Contain.dirty_roots ~old_edges:edges ~new_edges:edges ~touched:[ "leaf" ]
  in
  Alcotest.(check bool) "touched root is dirty" true (List.mem "leaf" dirty);
  Alcotest.(check bool) "upstream roots are dirty" true
    (List.mem "mid" dirty && List.mem "core" dirty);
  Alcotest.(check bool) "the island is not" false (List.mem "island" dirty)

(* --- the dynamic soundness audit --- *)

let escapes =
  Alcotest.(
    list
      (triple string (of_pp (Fmt.of_to_string Contain.impact_to_string))
         (option (of_pp (Fmt.of_to_string Contain.impact_to_string)))))

let audit_fleet =
  Contain.analyze
    [ m ~name:"a" ~provides:[ "s" ] ~restart:restarting ();
      m ~name:"b" ~connects_to:[ conn "a" "s" ] ();
      m ~name:"c" () ]

let test_audit_repeated_kill () =
  let observed = [ ("a", Contain.Failed) ] in
  Alcotest.check escapes "one kill allows only a restart"
    [ ("a", Contain.Failed, Some Contain.Restarted) ]
    (Contain.audit audit_fleet ~kills:[ "a" ] observed);
  Alcotest.check escapes "a repeated kill licenses Failed" []
    (Contain.audit audit_fleet ~kills:[ "a"; "a" ] observed)

let test_audit_reports_allowed () =
  Alcotest.check escapes "each escape carries what the radius allows"
    [ ("b", Contain.Restarted, Some Contain.Degraded); ("c", Contain.Degraded, None) ]
    (Contain.audit audit_fleet ~kills:[ "a" ]
       [ ("a", Contain.Restarted); ("b", Contain.Restarted); ("c", Contain.Degraded) ])

let test_audit_fleet_scenario () =
  let ms = List.map fst (Lt_fleet.Fleet_chaos.scenario_components ()) in
  let r = Contain.analyze ms in
  List.iter
    (fun rad ->
      Alcotest.check escapes
        (rad.Contain.r_root ^ ": its own radius passes") []
        (Contain.audit r ~kills:[ rad.Contain.r_root ] rad.Contain.r_hit))
    r.Contain.radii

let suite =
  [ Alcotest.test_case "channel edges bounded under supervision" `Quick
      test_channel_bounded;
    Alcotest.test_case "unsupervised callers block forever" `Quick
      test_channel_blocked_unsupervised;
    Alcotest.test_case "domain cohabitants share the crash" `Quick
      test_domain_cofate;
    Alcotest.test_case "exclusive substrates stall their slice" `Quick
      test_substrate_exclusive;
    Alcotest.test_case "state-loss edges and their shields" `Quick
      test_state_loss_edge;
    Alcotest.test_case "restart storms fail the whole cycle" `Quick
      test_restart_storm;
    Alcotest.test_case "escape witness: victim, count, path" `Quick
      test_escape_witness;
    Alcotest.test_case "restart policies contain the fleet" `Quick
      test_restart_contains;
    Alcotest.test_case "non-crashable substrates are never roots" `Quick
      test_noncrashable_roots_exempt;
    Alcotest.test_case "analysis is deterministic" `Quick test_deterministic;
    Alcotest.test_case "edge-kind registry is complete" `Quick
      test_edge_kind_registry;
    Alcotest.test_case "incremental contain equals batch" `Quick
      test_incremental_contain;
    Alcotest.test_case "dirty roots stay scoped" `Quick test_dirty_roots_scoped;
    QCheck_alcotest.to_alcotest prop_analyze_total;
    QCheck_alcotest.to_alcotest prop_supervision_only_shrinks;
    Alcotest.test_case "audit: a repeated kill licenses Failed" `Quick
      test_audit_repeated_kill;
    Alcotest.test_case "audit: escapes carry the allowed impact" `Quick
      test_audit_reports_allowed;
    Alcotest.test_case "audit: the fleet scenario has no escapes" `Quick
      test_audit_fleet_scenario ]
