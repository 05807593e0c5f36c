(* Observability runtime: tracer invariants, histogram quantile bounds
   against a sorted-array oracle, and determinism of the load engine. *)

module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Load = Lt_load.Load

(* --- span causality ------------------------------------------------------- *)

let run_mail ?trace_capacity ?faults ~requests ~seed () =
  match Load.run ?trace_capacity ?faults ~scenario:Load.Mail ~requests ~seed () with
  | Ok (report, tracer) -> (report, tracer)
  | Error e -> Alcotest.fail e

let check_parent_invariants spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.sp_id sp) spans;
  List.iter
    (fun sp ->
      match sp.Trace.sp_parent with
      | None -> ()
      | Some pid ->
        (match Hashtbl.find_opt by_id pid with
         | None ->
           Alcotest.failf "span %d (%s) has vanished parent %d" sp.Trace.sp_id
             sp.Trace.sp_name pid
         | Some parent ->
           Alcotest.(check int)
             "child inherits the parent's trace id" parent.Trace.sp_trace
             sp.Trace.sp_trace;
           Alcotest.(check bool) "parent opened before child" true
             (parent.Trace.sp_start <= sp.Trace.sp_start);
           Alcotest.(check bool) "child closed before parent" true
             (sp.Trace.sp_end <= parent.Trace.sp_end)))
    spans;
  (* no cycles: every parent chain must terminate within |spans| hops *)
  let n = List.length spans in
  List.iter
    (fun sp ->
      let rec climb hops id =
        if hops > n then
          Alcotest.failf "parent cycle reached from span %d" sp.Trace.sp_id
        else
          match Hashtbl.find_opt by_id id with
          | None -> ()
          | Some s ->
            (match s.Trace.sp_parent with
             | None -> ()
             | Some pid -> climb (hops + 1) pid)
      in
      climb 0 sp.Trace.sp_id)
    spans

let test_span_causality () =
  let report, tracer = run_mail ~requests:30 ~seed:11 () in
  let spans = Trace.spans tracer in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  Alcotest.(check int) "nothing dropped at default capacity" 0
    (Trace.dropped tracer);
  check_parent_invariants spans;
  (* root spans exist, one per issued request *)
  let roots =
    List.filter (fun sp -> sp.Trace.sp_parent = None && sp.Trace.sp_kind = "request")
      spans
  in
  Alcotest.(check int) "one root request span per request"
    (report.Load.r_ok + report.Load.r_degraded + report.Load.r_errors)
    (List.length roots)

let test_eviction_keeps_parents () =
  (* a tiny ring forces eviction; survivors must still form valid trees
     because children are recorded (and therefore evicted) before their
     parents *)
  let _, tracer = run_mail ~trace_capacity:40 ~requests:30 ~seed:11 () in
  Alcotest.(check bool) "eviction actually happened" true (Trace.dropped tracer > 0);
  Alcotest.(check int) "ring respects capacity" 40
    (List.length (Trace.spans tracer));
  check_parent_invariants (Trace.spans tracer)

let test_cross_substrate_request () =
  (* acceptance: a single request's causal tree crosses >= 2 substrates *)
  let _, tracer = run_mail ~requests:10 ~seed:7 () in
  let per_trace = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match List.assoc_opt "substrate" sp.Trace.sp_attrs with
      | None -> ()
      | Some sub ->
        let seen =
          Option.value ~default:[] (Hashtbl.find_opt per_trace sp.Trace.sp_trace)
        in
        if not (List.mem sub seen) then
          Hashtbl.replace per_trace sp.Trace.sp_trace (sub :: seen))
    (Trace.spans tracer);
  let best = Hashtbl.fold (fun _ subs acc -> max acc (List.length subs)) per_trace 0 in
  Alcotest.(check bool)
    (Printf.sprintf "one request crossed %d substrates (need >= 2)" best)
    true (best >= 2)

let test_failed_span_status () =
  let tracer = Trace.create () in
  Trace.with_tracer tracer (fun () ->
      (try
         Trace.with_span ~kind:"call" ~name:"boom" (fun () -> failwith "kaput")
       with Failure _ -> ());
      Trace.with_span ~kind:"call" ~name:"soft" (fun () -> Trace.fail_span "denied"));
  match Trace.spans tracer with
  | [ a; b ] ->
    Alcotest.(check bool) "exception recorded" true
      (String.length a.Trace.sp_status > 2 && String.sub a.Trace.sp_status 0 3 = "exn");
    Alcotest.(check string) "fail_span detail recorded" "denied" b.Trace.sp_status
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* --- histogram quantiles vs a sorted-array oracle -------------------------- *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(min (n - 1) (rank - 1))

let qcheck_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"histogram quantile bounds contain the oracle"
    QCheck.(pair (list_of_size Gen.(1 -- 200) (int_bound 100_000))
              (list_of_size Gen.(int_bound 3) (float_range 0.0 1.0)))
    (fun (samples, qs) ->
      QCheck.assume (samples <> []);
      let m = Metrics.create () in
      Metrics.with_metrics m (fun () ->
          List.iter (fun s -> Metrics.observe ~key:"h" s) samples);
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun q ->
          match Metrics.quantile_bounds m "h" q with
          | None -> q <= 0.0 || q > 1.0
          | Some (lo, hi) ->
            let exact = exact_quantile sorted q in
            lo <= exact && exact <= hi)
        (0.5 :: 0.95 :: 0.99 :: 1.0 :: qs))

let test_summary_matches_oracle () =
  let samples = [ 3; 7; 0; 1; 255; 256; 1024; 9; 9; 9; 64; 2; 5; 8000; 13 ] in
  let m = Metrics.create () in
  Metrics.with_metrics m (fun () ->
      List.iter (fun s -> Metrics.observe ~key:"h" s) samples);
  let sorted = Array.of_list (List.sort compare samples) in
  match List.assoc_opt "h" (Metrics.summaries m) with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    Alcotest.(check int) "count" (List.length samples) s.Metrics.s_count;
    Alcotest.(check int) "sum" (List.fold_left ( + ) 0 samples) s.Metrics.s_sum;
    Alcotest.(check int) "max" 8000 s.Metrics.s_max;
    List.iter
      (fun (q, reported) ->
        let exact = exact_quantile sorted q in
        Alcotest.(check bool)
          (Printf.sprintf "p%.0f upper bound >= oracle" (100. *. q))
          true (reported >= exact))
      [ (0.5, s.Metrics.s_p50); (0.95, s.Metrics.s_p95); (0.99, s.Metrics.s_p99) ]

let test_counters_sorted_and_exact () =
  let m = Metrics.create () in
  Metrics.with_metrics m (fun () ->
      Metrics.incr "b";
      Metrics.incr ~by:41 "a";
      Metrics.incr "a";
      Metrics.incr ~by:0 "c");
  Alcotest.(check (list (pair string int)))
    "sorted keys, exact totals"
    [ ("a", 42); ("b", 1); ("c", 0) ]
    (Metrics.counters m)

(* --- determinism ----------------------------------------------------------- *)

let qcheck_equal_seeds_identical =
  QCheck.Test.make ~count:12 ~name:"equal seeds give byte-identical exports"
    QCheck.(pair (int_bound 1_000_000) (QCheck.map (fun n -> n + 1) (int_bound 40)))
    (fun (seed, requests) ->
      let faults =
        { Load.drop_pct = 10; delay_pct = 10; compromise_pct = 10 }
      in
      let once () =
        match Load.run ~faults ~scenario:Load.Mail ~requests ~seed () with
        | Error e -> QCheck.Test.fail_report e
        | Ok (report, tracer) ->
          ( Load.render_report_json report,
            Trace.export_json tracer,
            Trace.export_text tracer )
      in
      once () = once ())

let test_different_seeds_differ () =
  let trace seed =
    let _, tracer = run_mail ~requests:40 ~seed () in
    Trace.export_json tracer
  in
  Alcotest.(check bool) "different seeds explore different schedules" true
    (trace 1 <> trace 2)

(* --- the one JSON printer --------------------------------------------------- *)

let test_json_escape () =
  let module Json = Lt_obs.Json in
  Alcotest.(check string) "quote, backslash, newline, CR, tab, control bytes"
    {|a\"b\\c\nd\re\tf\u0001\u001f|}
    (Json.escape "a\"b\\c\nd\re\tf\x01\x1f");
  Alcotest.(check string) "bytes >= 0x80 pass through" "\xc3\xa9\xff\x80"
    (Json.escape "\xc3\xa9\xff\x80");
  Alcotest.(check string) "string values are quoted and escaped" {|"x\ty"|}
    (Json.to_string (Json.Str "x\ty"))

let test_json_printer () =
  let module Json = Lt_obs.Json in
  Alcotest.(check string) "empty object" "{}" (Json.to_string (Json.Obj []));
  Alcotest.(check string) "empty list" "[]" (Json.to_string (Json.List []));
  Alcotest.(check string) "nesting, member order kept, no whitespace"
    {|{"z":[1,-2,true,false,null,"s"],"a":{"b":{"c":[]}},"k":{"n":3}}|}
    (Json.to_string
       (Json.Obj
          [ ( "z",
              Json.List
                [ Json.Int 1; Json.Int (-2); Json.Bool true; Json.Bool false;
                  Json.Null; Json.Str "s" ] );
            ("a", Json.Obj [ ("b", Json.Obj [ ("c", Json.List []) ]) ]);
            ("k", Json.counts [ ("n", 3) ]) ]));
  Alcotest.(check string) "keys are escaped too" {|{"a\"b":"c"}|}
    (Json.to_string (Json.Obj [ ({|a"b|}, Json.Str "c") ]));
  Alcotest.(check string) "floats: three decimals, non-finite is null"
    {|[2.000,-0.250,1234.568,null,null]|}
    (Json.to_string
       (Json.List
          (List.map
             (fun f -> Json.Float f)
             [ 2.0; -0.25; 1234.5678; Float.nan; Float.infinity ])))

let suite =
  [ Alcotest.test_case "span causality invariants" `Quick test_span_causality;
    Alcotest.test_case "ring eviction never orphans survivors" `Quick
      test_eviction_keeps_parents;
    Alcotest.test_case "a request crosses >= 2 substrates" `Quick
      test_cross_substrate_request;
    Alcotest.test_case "failure status lands on the right span" `Quick
      test_failed_span_status;
    Alcotest.test_case "histogram summary vs oracle" `Quick
      test_summary_matches_oracle;
    Alcotest.test_case "counters sorted and exact" `Quick
      test_counters_sorted_and_exact;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
    QCheck_alcotest.to_alcotest qcheck_quantile_bounds;
    QCheck_alcotest.to_alcotest qcheck_equal_seeds_identical;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "json printer" `Quick test_json_printer ]
