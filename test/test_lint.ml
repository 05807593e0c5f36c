(* The lint engine: one triggering and one clean case per rule, the
   golden fixture under examples/, and engine-level invariants. *)

open Lateral

let parse text =
  match Manifest_file.parse text with
  | Ok ms -> ms
  | Error e -> Alcotest.fail e

let lint_text text = Lint.run (parse text)

let rule_ids diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.rule_id) diags)

let fires id diags =
  List.exists (fun d -> d.Diagnostic.rule_id = id) diags

let check_fires id diags =
  Alcotest.(check bool) (id ^ " fires") true (fires id diags)

let check_silent id diags =
  Alcotest.(check bool) (id ^ " silent") false (fires id diags)

let string_contains ~inside needle =
  let n = String.length needle and h = String.length inside in
  let rec go i = i + n <= h && (String.sub inside i n = needle || go (i + 1)) in
  go 0

(* --- one triggering + one clean fixture per rule --------------------------- *)

let test_dangling_target () =
  check_fires "L001-dangling-target" (lint_text "component a\n  connects b.x");
  check_silent "L001-dangling-target"
    (lint_text "component a\n  connects b.x\ncomponent b\n  provides x")

let test_dangling_service () =
  check_fires "L002-dangling-service"
    (lint_text "component a\n  connects b.x\ncomponent b\n  provides y");
  check_silent "L002-dangling-service"
    (lint_text "component a\n  connects b.x\ncomponent b\n  provides x y")

let test_duplicate_component () =
  (* the parser rejects duplicates, so this rule guards API-built sets *)
  let dup =
    [ Manifest.v ~name:"a" ();
      Manifest.v ~name:"a" ~size_loc:2 ();
      Manifest.v ~name:"b" () ]
  in
  check_fires "L003-duplicate-component" (Lint.run dup);
  check_silent "L003-duplicate-component"
    (Lint.run [ Manifest.v ~name:"a" (); Manifest.v ~name:"b" () ])

let test_self_connection () =
  (* likewise parser-rejected in files, still reachable through the API *)
  let self =
    [ Manifest.v ~name:"a" ~provides:[ "s" ]
        ~connects_to:[ Manifest.conn "a" "s" ] () ]
  in
  check_fires "L004-self-connection" (Lint.run self);
  check_silent "L004-self-connection"
    (Lint.run
       [ Manifest.v ~name:"a" ~connects_to:[ Manifest.conn "b" "s" ] ();
         Manifest.v ~name:"b" ~provides:[ "s" ] () ])

let jar badges =
  Printf.sprintf
    {|component jar
  %s
  provides get
component one
  connects jar.get
component two
  connects jar.get|}
    (if badges then "size 300" else "no-badge-checks")

let test_confused_deputy () =
  check_fires "L005-confused-deputy" (lint_text (jar false));
  check_silent "L005-confused-deputy" (lint_text (jar true))

let taint vet =
  Printf.sprintf
    {|component net
  network-facing
  provides go
  %s keys.sign
component keys
  substrate sep
  provides sign|}
    (if vet then "connects-vetted" else "connects")

let test_taint_flow () =
  check_fires "L006-taint-flow" (lint_text (taint false));
  check_silent "L006-taint-flow" (lint_text (taint true));
  (* a two-hop flow is L016's business, and a vetted middle edge breaks it *)
  let hop vet =
    Printf.sprintf
      {|component net
  network-facing
  provides go
  connects mid.relay
component mid
  provides relay
  %s keys.sign
component keys
  substrate sep
  provides sign|}
      (if vet then "connects-vetted" else "connects")
  in
  check_silent "L006-taint-flow" (lint_text (hop false));
  check_fires "L016-transitive-taint-into-enclave" (lint_text (hop false));
  check_silent "L016-transitive-taint-into-enclave" (lint_text (hop true))

let test_label_leak () =
  (* the unvetted reply edge carries the secret back into the exposed
     caller; vetting the channel declassifies it *)
  check_fires "L014-label-leak" (lint_text (taint false));
  check_silent "L014-label-leak" (lint_text (taint true))

let test_dead_declassifier () =
  let boundary vet =
    Printf.sprintf
      {|component a
  provides x
  %s b.io
component b
  provides io|}
      (if vet then "connects-vetted" else "connects")
  in
  check_fires "L015-dead-declassifier" (lint_text (boundary true));
  check_silent "L015-dead-declassifier" (lint_text (boundary false));
  (* a vetted boundary in front of a secret holder is earning its keep *)
  check_silent "L015-dead-declassifier" (lint_text (taint true))

let legacy vet =
  Printf.sprintf
    {|component app
  provides run
  %s os.syscall
component os
  substrate monolithic-os
  provides syscall|}
    (if vet then "connects-vetted" else "connects")

let test_legacy_tcb () =
  check_fires "L007-legacy-tcb" (lint_text (legacy false));
  check_silent "L007-legacy-tcb" (lint_text (legacy true))

let domain_of n =
  String.concat "\n"
    (List.init n (fun i ->
         Printf.sprintf "component c%d\n  domain blob\n  provides s%d" i i))

let test_shared_domain () =
  check_fires "L008-shared-domain-pola" (lint_text (domain_of 4));
  check_silent "L008-shared-domain-pola" (lint_text (domain_of 3))

let test_channel_cycle () =
  check_fires "L009-channel-cycle"
    (lint_text
       {|component a
  provides x
  connects b.y
component b
  provides y
  connects a.x|});
  check_silent "L009-channel-cycle"
    (lint_text
       {|component a
  provides x
  connects b.y
component b
  provides y|})

let test_dead_service () =
  check_fires "L010-dead-service" (lint_text "component a\n  provides s");
  (* network-facing services are external entry points, not dead *)
  check_silent "L010-dead-service"
    (lint_text "component a\n  network-facing\n  provides s");
  check_silent "L010-dead-service"
    (lint_text
       "component a\n  provides s\ncomponent b\n  network-facing\n  connects a.s")

let test_substrate_mismatch () =
  check_fires "L011-substrate-mismatch"
    (lint_text "component a\n  substrate quantum");
  (* a vetted boundary needs an attestable target *)
  check_fires "L011-substrate-mismatch"
    (lint_text
       {|component app
  connects-vetted fs.io
component fs
  provides io|});
  check_silent "L011-substrate-mismatch"
    (lint_text
       {|component app
  connects-vetted fs.io
component fs
  substrate sgx
  provides io|})

let test_vulnerable_cohabitant () =
  check_fires "L012-vulnerable-cohabitant"
    (lint_text
       "component a\n  domain d\n  vulnerable\ncomponent b\n  domain d");
  check_silent "L012-vulnerable-cohabitant"
    (lint_text "component a\n  vulnerable\ncomponent b\n  domain d")

let test_oversized () =
  check_fires "L013-oversized-component"
    (lint_text "component a\n  size 30000");
  check_silent "L013-oversized-component"
    (lint_text "component a\n  size 29999")

let test_restart_policy_missing () =
  check_fires "L019-restart-policy-missing"
    (lint_text "component a\n  stateful");
  check_fires "L019-restart-policy-missing"
    (lint_text "component a\n  substrate sgx\n  stateful");
  (* a declared policy satisfies the rule, even `never` *)
  check_silent "L019-restart-policy-missing"
    (lint_text "component a\n  stateful\n  restart on-failure");
  check_silent "L019-restart-policy-missing"
    (lint_text "component a\n  stateful\n  restart never");
  (* stateless components have nothing to lose *)
  check_silent "L019-restart-policy-missing" (lint_text "component a");
  (* the secure side of a dedicated-hardware substrate is not crashable *)
  check_silent "L019-restart-policy-missing"
    (lint_text "component a\n  substrate sep\n  stateful")

let test_placement_unsatisfiable () =
  let hosts =
    [ Manifest.host ~name:"edge" ~substrates:[ "microkernel"; "sgx" ];
      Manifest.host ~name:"core" ~substrates:[ "monolithic-os" ] ]
  in
  let config = { Lint_rules.default_config with Lint_rules.declared_hosts = hosts } in
  let lint_fleet text = Lint.run ~config (parse text) in
  let id = "L024-placement-unsatisfiable" in
  (* satisfiable specs: by class, by host name, by bare substrate, empty *)
  check_silent id (lint_fleet "component a\n  substrate sgx\n  place class:tee");
  check_silent id (lint_fleet "component a\n  place host:edge");
  check_silent id (lint_fleet "component a\n  place microkernel");
  check_silent id (lint_fleet "component a");
  (* substrate offered nowhere: unsatisfiable even with no place spec *)
  check_fires id (lint_fleet "component a\n  substrate sep");
  (* selectors match a host, but not one offering the substrate *)
  check_fires id (lint_fleet "component a\n  substrate sgx\n  place host:core");
  (* class matches no host *)
  check_fires id
    (Lint.run
       ~config:
         { Lint_rules.default_config with
           Lint_rules.declared_hosts =
             [ Manifest.host ~name:"solo" ~substrates:[ "microkernel" ] ] }
       (parse "component a\n  substrate sgx\n  place class:tee"));
  (* unknown host / unknown class / unknown substrate selectors *)
  check_fires id (lint_fleet "component a\n  place host:ghost");
  check_fires id (lint_fleet "component a\n  place class:enclave");
  check_fires id (lint_fleet "component a\n  place notasubstrate");
  (* empty selector names nothing *)
  check_fires id (lint_fleet "component a\n  place host: class:tee");
  (* without declared hosts only selector syntax is checked *)
  check_silent id (Lint.run (parse "component a\n  substrate sep\n  place class:tee"));
  check_fires id (Lint.run (parse "component a\n  place class:enclave"));
  (* all findings are errors *)
  List.iter
    (fun d ->
      if d.Diagnostic.rule_id = id then
        Alcotest.(check bool) "L024 is error severity" true
          (d.Diagnostic.severity = Diagnostic.Error))
    (lint_fleet "component a\n  substrate sep\n  place class:enclave")

(* --- the golden fixtures under examples/ ----------------------------------- *)

let load_example file =
  match Manifest_file.load ("../examples/" ^ file) with
  | Ok ms -> ms
  | Error e -> Alcotest.fail e

let test_broken_fixture () =
  let diags = Lint.run (load_example "broken.manifest") in
  Alcotest.(check (list string))
    "the broken fixture locks ten-plus distinct rule ids"
    [ "L001-dangling-target";
      "L002-dangling-service";
      "L005-confused-deputy";
      "L006-taint-flow";
      "L007-legacy-tcb";
      "L008-shared-domain-pola";
      "L009-channel-cycle";
      "L010-dead-service";
      "L011-substrate-mismatch";
      "L012-vulnerable-cohabitant";
      "L013-oversized-component";
      "L014-label-leak";
      "L019-restart-policy-missing";
      "L020-unbounded-blast-radius";
      "L023-stateful-dependency-unshielded" ]
    (rule_ids diags);
  Alcotest.(check int) "diagnostic count" 24 (List.length diags);
  Alcotest.(check bool) "gates CI" true (Lint.has_errors diags)

let test_browser_fixture () =
  let diags = Lint.run (load_example "browser.manifest") in
  Alcotest.(check bool) "confused-deputy error on the cookie jar" true
    (List.exists
       (fun d ->
         d.Diagnostic.rule_id = "L005-confused-deputy"
         && d.Diagnostic.severity = Diagnostic.Error
         && d.Diagnostic.component = "cookies"
         && d.Diagnostic.service = Some "get")
       diags);
  Alcotest.(check bool) "taint warning on the js -> cookies path" true
    (List.exists
       (fun d ->
         d.Diagnostic.rule_id = "L006-taint-flow"
         && d.Diagnostic.severity = Diagnostic.Warning
         && d.Diagnostic.component = "js"
         && string_contains ~inside:d.Diagnostic.message "js -> cookies")
       diags)

let test_clean_fixture () =
  Alcotest.(check int) "clean fixture has no diagnostics" 0
    (List.length (Lint.run (load_example "clean.manifest")))

(* --- engine invariants ------------------------------------------------------ *)

let test_report_rendering () =
  let d =
    Diagnostic.v ~rule_id:"L999-test" ~severity:Diagnostic.Error
      ~component:{|we"ird|} ~service:"s" ~message:"line1\nline2\ttab"
      ~fix_hint:"do \"this\"" ()
  in
  let json = Lt_obs.Json.to_string (Diagnostic.to_json d) in
  Alcotest.(check bool) "escapes quotes" true
    (string_contains ~inside:json {|"component":"we\"ird"|});
  Alcotest.(check bool) "escapes control characters" true
    (string_contains ~inside:json {|line1\nline2\ttab|});
  let file_json = Lint.render_json ~file:"x.manifest" [ d ] in
  Alcotest.(check bool) "summary counts the error" true
    (string_contains ~inside:file_json {|"summary":{"errors":1,"warnings":0,"infos":0}|});
  let none = Lint.render_json ~file:"x.manifest" [] in
  Alcotest.(check bool) "empty report is an empty array" true
    (string_contains ~inside:none {|"diagnostics":[]|})

let test_sorted_and_deterministic () =
  let ms = load_example "broken.manifest" in
  let a = Lint.run ms and b = Lint.run ms in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "sorted worst-first" true
    (List.sort Diagnostic.compare a = a)

let gen_manifests =
  QCheck.Gen.(
    let name = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
    let service = oneofl [ "s1"; "s2"; "s3" ] in
    let conn =
      map3 (fun v t s -> Manifest.conn ~vetted:v t s) bool name service
    in
    let comp =
      name >>= fun n ->
      list_size (int_bound 3) conn >>= fun cs ->
      list_size (int_bound 2) service >>= fun provides ->
      oneofl [ "microkernel"; "sep"; "monolithic-os"; "quantum" ] >>= fun sub ->
      bool >>= fun net ->
      bool >>= fun vuln ->
      bool >>= fun badges ->
      oneofl [ "d1"; "d2"; n ] >>= fun dom ->
      int_bound 50_000 >>= fun size ->
      return
        (Manifest.v ~name:n ~provides ~connects_to:cs ~domain:dom
           ~size_loc:size ~network_facing:net ~vulnerable:vuln
           ~discriminates_clients:badges ~substrate:sub ())
    in
    list_size (int_bound 6) comp)

(* duplicates, self-connections, dangling everything: the engine must
   stay pure and total on arbitrary manifest sets *)
let prop_lint_total =
  QCheck.Test.make ~name:"lint is total on arbitrary manifest sets" ~count:200
    (QCheck.make gen_manifests)
    (fun ms ->
      let diags = Lint.run ms in
      List.sort Diagnostic.compare diags = diags
      && String.length (Lint.render_json ~file:"f" diags) > 0)

(* --- locate: span attachment ------------------------------------------------ *)

let span line name =
  { Manifest_file.sp_manifest = Manifest.v ~name (); sp_line = line }

let test_locate_unknown_passthrough () =
  (* diagnostics anchored to components absent from the span list keep
     loc = None instead of being dropped or mislocated *)
  let diags =
    lint_text "component a\n  connects b.x\ncomponent b\n  provides x"
  in
  let located = Lint.locate ~file:"f.manifest" [ span 3 "b" ] diags in
  Alcotest.(check int) "nothing dropped" (List.length diags)
    (List.length located);
  List.iter
    (fun d ->
      match (d.Diagnostic.component, d.Diagnostic.loc) with
      | "b", loc ->
        Alcotest.(check bool) "b located" true
          (loc = Some { Diagnostic.file = "f.manifest"; line = 3 })
      | _, loc -> Alcotest.(check bool) "unknown passes through" true (loc = None))
    located

let test_locate_duplicate_span_winner () =
  (* two spans for the same name: the first one in the list wins,
     deterministically *)
  let diags = lint_text "component a\n  connects b.x" in
  let located =
    Lint.locate ~file:"f.manifest" [ span 1 "a"; span 9 "a" ] diags
  in
  List.iter
    (fun d ->
      if d.Diagnostic.component = "a" then
        Alcotest.(check bool) "first span wins" true
          (d.Diagnostic.loc = Some { Diagnostic.file = "f.manifest"; line = 1 }))
    located;
  Alcotest.(check bool) "a diagnostic was located" true
    (List.exists (fun d -> d.Diagnostic.loc <> None) located)

let test_locate_resorts () =
  (* location participates in Diagnostic.compare, so locate must
     re-sort; the result is a fixpoint of sorting *)
  let diags =
    lint_text
      "component a\n  connects b.x\ncomponent b\n  connects a.y\ncomponent c\n  connects miss.z"
  in
  let located =
    Lint.locate ~file:"f.manifest" [ span 5 "c"; span 3 "b"; span 1 "a" ] diags
  in
  Alcotest.(check bool) "stably sorted" true
    (located = List.sort Diagnostic.compare located);
  (* locating twice with the same spans is idempotent *)
  let again =
    Lint.locate ~file:"f.manifest" [ span 5 "c"; span 3 "b"; span 1 "a" ] located
  in
  Alcotest.(check bool) "idempotent" true (again = located)

let test_locate_all_first_file_wins () =
  let diags = lint_text "component a\n  connects b.x" in
  let located =
    Lint.locate_all
      [ ("one.manifest", [ span 4 "a" ]); ("two.manifest", [ span 8 "a" ]) ]
      diags
  in
  List.iter
    (fun d ->
      if d.Diagnostic.component = "a" then
        Alcotest.(check bool) "first file wins" true
          (d.Diagnostic.loc = Some { Diagnostic.file = "one.manifest"; line = 4 }))
    located

let suite =
  [ Alcotest.test_case "L001 dangling target" `Quick test_dangling_target;
    Alcotest.test_case "L002 dangling service" `Quick test_dangling_service;
    Alcotest.test_case "L003 duplicate component" `Quick test_duplicate_component;
    Alcotest.test_case "L004 self connection" `Quick test_self_connection;
    Alcotest.test_case "L005 confused deputy" `Quick test_confused_deputy;
    Alcotest.test_case "L006 taint flow" `Quick test_taint_flow;
    Alcotest.test_case "L007 legacy tcb" `Quick test_legacy_tcb;
    Alcotest.test_case "L008 shared domain" `Quick test_shared_domain;
    Alcotest.test_case "L009 channel cycle" `Quick test_channel_cycle;
    Alcotest.test_case "L010 dead service" `Quick test_dead_service;
    Alcotest.test_case "L011 substrate mismatch" `Quick test_substrate_mismatch;
    Alcotest.test_case "L012 vulnerable cohabitant" `Quick test_vulnerable_cohabitant;
    Alcotest.test_case "L013 oversized component" `Quick test_oversized;
    Alcotest.test_case "L014 label leak" `Quick test_label_leak;
    Alcotest.test_case "L015 dead declassifier" `Quick test_dead_declassifier;
    Alcotest.test_case "L019 restart policy missing" `Quick test_restart_policy_missing;
    Alcotest.test_case "L024 placement unsatisfiable" `Quick
      test_placement_unsatisfiable;
    Alcotest.test_case "broken fixture golden" `Quick test_broken_fixture;
    Alcotest.test_case "browser fixture findings" `Quick test_browser_fixture;
    Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "sorted and deterministic" `Quick test_sorted_and_deterministic;
    Alcotest.test_case "locate: unknown components pass through" `Quick
      test_locate_unknown_passthrough;
    Alcotest.test_case "locate: duplicate spans pick a deterministic winner"
      `Quick test_locate_duplicate_span_winner;
    Alcotest.test_case "locate: re-sorts and is idempotent" `Quick
      test_locate_resorts;
    Alcotest.test_case "locate_all: first file wins" `Quick
      test_locate_all_first_file_wins;
    QCheck_alcotest.to_alcotest prop_lint_total ]
