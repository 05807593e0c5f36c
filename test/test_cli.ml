(* The documented exit-code convention, one case per subcommand:
   0 = success, 1 = findings or failed checks, 2 = usage or parse
   errors (and check --verify divergence), 125 = internal errors.
   Runs the real binary so the convention cannot drift from the docs. *)

let exe = Filename.concat ".." (Filename.concat "bin" "lateral_cli.exe")

let run args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe args)

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [capture args] — exit code, stdout and stderr of one invocation *)
let capture args =
  let out = Filename.temp_file "lateral_cli" ".out"
  and err = Filename.temp_file "lateral_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe args out err) in
      (code, read_file out, read_file err))

let with_temp content f =
  let path = Filename.temp_file "lateral_cli" ".tmp" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let clean = "../examples/clean.manifest"

let broken = "../examples/broken.manifest"

let storm_manifest =
  {|component scheduler
  domain control
  restart on-failure 3 256
  provides tick
  connects worker.work

component worker
  domain control
  restart always 2
  provides work
  connects scheduler.tick
|}

let test_demo_commands () =
  check_exit "substrates succeeds" 0 "substrates";
  check_exit "gateway succeeds" 0 "gateway";
  check_exit "meter rejects a bad tamper mode" 2 "meter --tamper bogus"

let test_run_chaos () =
  check_exit "run rejects zero requests" 2 "run mail --requests 0";
  check_exit "chaos rejects zero requests" 2 "chaos mail --requests 0"

let test_drivers () =
  check_exit "run passes" 0 "run mail --requests 5";
  check_exit "chaos passes" 0 "chaos mail --requests 20 --kill imap";
  check_exit "fleet passes" 0 "fleet --hosts 3 --requests 10";
  check_exit "scale passes" 0 "scale mail --tenants 8 --shards 2 --requests 2";
  check_exit "chaos rejects an unknown component" 2 "chaos mail --kill ghost";
  check_exit "fleet rejects zero requests" 2 "fleet --requests 0";
  check_exit "fleet rejects a malformed partition" 2 "fleet --partition host-1:x";
  check_exit "fleet rejects an unknown host" 2
    "fleet --hosts 3 --kill-host host-9";
  check_exit "scale rejects zero tenants" 2 "scale --tenants 0"

(* an unwritable --trace FILE is an input error, reported after the
   report itself *)
let test_unwritable_trace () =
  let bad =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "lateral-no-such-dir")
      "t.json"
  in
  List.iter
    (fun cmd ->
      check_exit (cmd ^ " rejects an unwritable trace path") 2
        (Printf.sprintf "%s --trace %s" cmd bad))
    [ "run mail --requests 5"; "chaos mail --requests 5";
      "fleet --requests 5"; "meter"; "gateway" ];
  let out = Filename.temp_file "lateral_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      ignore
        (Sys.command
           (Printf.sprintf "%s run mail --requests 5 --trace %s >%s 2>/dev/null"
              exe bad out));
      let ic = open_in out in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check string) "the report is printed first"
        "lateral run mail: 5 requests, seed 1" first)

let test_hunt () =
  check_exit "hunt rejects an unknown engine" 2
    "hunt --budget 1 --engine bogus";
  check_exit "hunt rejects a zero budget" 2 "hunt --budget 0"

let test_analysis_commands () =
  check_exit "lint wants at least one file" 2 "lint";
  check_exit "flow wants at least one file" 2 "flow";
  check_exit "contain wants at least one file" 2 "contain";
  check_exit "lint is quiet on the clean fixture" 0 ("lint " ^ clean);
  check_exit "lint flags the broken fixture" 1 ("lint " ^ broken);
  with_temp "component a\n  bogus-field x\n" (fun bad ->
      check_exit "analyze reports parse errors as usage" 2 ("analyze " ^ bad);
      check_exit "contain reports parse errors as usage" 2 ("contain " ^ bad))

let test_check_deltas () =
  with_temp "connect a\n" (fun bad ->
      check_exit "check rejects a malformed delta script" 2
        (Printf.sprintf "check %s --deltas %s" clean bad))

let test_contain_verdicts () =
  check_exit "contain passes the clean fixture" 0 ("contain " ^ clean);
  check_exit "contain rejects an unknown witness root" 2
    (Printf.sprintf "contain %s --witness bogus" clean);
  with_temp storm_manifest (fun storm ->
      check_exit "contain fails a restart storm" 1 ("contain " ^ storm);
      check_exit "a witness query itself succeeds" 0
        (Printf.sprintf "contain %s --witness scheduler" storm))

let test_snap () =
  check_exit "snap round-trips one scenario world" 0 "snap cloud";
  check_exit "snap rejects an unknown scenario" 2 "snap bogus"

let test_usage_errors () =
  check_exit "unknown subcommands are usage errors" 2 "frobnicate";
  check_exit "unknown flags are usage errors" 2 "lint --bogus-flag"

(* one good manifest and one unparseable file: every command names the
   bad file on stderr and exits 2, but lint and flow still report on
   the good file while check and contain print nothing *)
let test_partial_parse () =
  with_temp "component a\n  bogus-field x\n" (fun bad ->
      let err =
        bad ^ ": line 2: unknown or malformed directive \"bogus-field\"\n"
      in
      let expect cmd out =
        let code, o, e = capture (Printf.sprintf "%s %s %s" cmd clean bad) in
        Alcotest.(check int) (cmd ^ " exit code") 2 code;
        Alcotest.(check string) (cmd ^ " stdout") out o;
        Alcotest.(check string) (cmd ^ " stderr") err e
      in
      expect "lint"
        (clean ^ ": 0 diagnostics (0 errors, 0 warnings, 0 info)\n");
      expect "flow"
        (clean
        ^ ": 3 components, 2 flow edges\n\
           labels:\n\
          \  gateway          tainted\n\
          \  keystore         secret{keystore}\n\
          \  parser           tainted\n\
           verdict: secure (no secret reaches an exposed component)\n");
      expect "check" "";
      expect "contain" "")

let suite =
  [ Alcotest.test_case "scenario demos exit 0, bad modes 2" `Quick
      test_demo_commands;
    Alcotest.test_case "run/chaos validate their load" `Quick test_run_chaos;
    Alcotest.test_case "hunt validates engine and budget" `Quick test_hunt;
    Alcotest.test_case "lint/flow/analyze/contain usage" `Quick
      test_analysis_commands;
    Alcotest.test_case "check rejects bad delta scripts" `Quick
      test_check_deltas;
    Alcotest.test_case "contain verdict and witness codes" `Quick
      test_contain_verdicts;
    Alcotest.test_case "snap digests and round-trips worlds" `Quick test_snap;
    Alcotest.test_case "unknown commands and flags exit 2" `Quick
      test_usage_errors;
    Alcotest.test_case "every driver: a passing run, bad plans exit 2" `Quick
      test_drivers;
    Alcotest.test_case "unwritable --trace exits 2 after the report" `Quick
      test_unwritable_trace;
    Alcotest.test_case "lint/flow/check/contain on one unparseable file"
      `Quick test_partial_parse ]
