(* lateral: command-line tool for the trusted component ecosystem.

   Subcommands inspect substrate properties, analyse horizontal
   applications, and run the paper's end-to-end scenarios. *)

open Lt_crypto
open Lateral

(* --- substrates ------------------------------------------------------------ *)

let all_substrates () =
  let rng = Drbg.create 1L in
  let ca = Rsa.generate ~bits:512 rng in
  let acc = ref [] in
  let m1 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m1 rng ~ca_name:"intel" ~ca_key:ca () in
  acc := sgx :: !acc;
  let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  (match
     Substrate_trustzone.make m2 ~vendor:ca.Rsa.pub
       ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz-os" "tz-os-v1")
       ~device_id:"dev" ~device_key_name:"devkey" ~secure_pages:4
   with
   | Ok (tz, _) -> acc := tz :: !acc
   | Error _ -> ());
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m3 rng ~device_id:"dev" ~private_pages:4 in
  acc := sep :: !acc;
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"1" in
  acc := Substrate_flicker.make tpm () :: !acc;
  let m4 = Lt_hw.Machine.create ~dram_pages:128 () in
  let mk, _ =
    Substrate_kernel.make m4 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  acc := mk :: !acc;
  let m5 = Lt_hw.Machine.create ~dram_pages:128 () in
  let tpm2 = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"2" in
  let mk_tpm, _ =
    Substrate_kernel.make m5 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ~tpm:tpm2 ()
  in
  acc := mk_tpm :: !acc;
  let cheri, _, _ = Substrate_cheri.make rng ~size:(1 lsl 17) () in
  acc := cheri :: !acc;
  let m3, _ = Substrate_m3.make rng ~ca_name:"m3-mfg" ~ca_key:ca ~tiles:8 () in
  acc := m3 :: !acc;
  List.rev !acc

let cmd_substrates () =
  let subs = all_substrates () in
  Printf.printf "%-16s %-11s %-7s %-6s %-9s %-8s %s\n" "substrate" "concurrent"
    "mutual" "cache" "progress" "tcb-loc" "defends";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun (s : Substrate.t) ->
      let p = s.Substrate.properties in
      Printf.printf "%-16s %-11b %-7b %-6b %-9b %-8d %s\n"
        p.Substrate.substrate_name p.Substrate.concurrent_components
        p.Substrate.mutually_isolated p.Substrate.shared_cache_with_host
        p.Substrate.progress_guaranteed
        (List.fold_left (fun a (_, n) -> a + n) 0 p.Substrate.tcb)
        (String.concat ","
           (List.map
              (fun m -> Format.asprintf "%a" Substrate.pp_attacker_model m)
              p.Substrate.defends)))
    subs;
  0

(* --- mail analysis ----------------------------------------------------------- *)

let cmd_mail vertical exploit =
  match Scenario_mail.build ~vertical with
  | Error e ->
    Printf.eprintf "mail: %s\n" e;
    1
  | Ok app ->
  Printf.printf "mail client, %s design\n"
    (if vertical then "vertical (monolithic)" else "horizontal (decomposed)");
  (match App.validate app with
   | Ok () -> ()
   | Error errs -> List.iter (Printf.printf "manifest error: %s\n") errs);
  Printf.printf "\ncomponents:\n";
  List.iter
    (fun m -> Printf.printf "  %s\n" (Format.asprintf "%a" Manifest.pp m))
    (App.manifests app);
  (match exploit with
   | None ->
     Printf.printf "\ncontainment (fraction of app owned when exploited):\n";
     List.iter
       (fun name ->
         let r = Analysis.compromise_reach app name in
         Printf.printf "  %-12s %s\n" name (Format.asprintf "%a" Analysis.pp_reach r))
       Scenario_mail.component_names
   | Some name ->
     let r = Analysis.compromise_reach app name in
     Printf.printf "\nexploiting %s: %s\n" name
       (Format.asprintf "%a" Analysis.pp_reach r);
     Printf.printf "invocable authority:\n";
     List.iter
       (fun (t, s) -> Printf.printf "  %s.%s\n" t s)
       r.Analysis.invocable);
  let risks = Analysis.confused_deputy_risks app in
  Printf.printf "\nconfused deputy risks: %d\n" (List.length risks);
  List.iter
    (fun (c, s, callers) ->
      Printf.printf "  %s.%s serves %s without badge checks\n" c s
        (String.concat ", " callers))
    risks;
  0

(* --- shared driver plumbing ------------------------------------------------------ *)

type format = Text | Json

(* write the Chrome trace-event JSON of [tracer] to [file]; an
   unwritable path is an input error: one stderr line, exit 2 *)
let write_trace cmd file tracer =
  match
    let oc = open_out file in
    output_string oc (Lt_obs.Trace.export_json tracer);
    close_out oc
  with
  | () -> true
  | exception Sys_error e ->
    Printf.eprintf "%s: cannot write trace: %s\n" cmd e;
    false

(* wrap a command in a fresh tracer and write the trace afterwards;
   without --trace the command runs uninstrumented *)
let with_trace cmd trace_file f =
  match trace_file with
  | None -> f ()
  | Some file ->
    let tracer = Lt_obs.Trace.create () in
    let code = Lt_obs.Trace.with_tracer tracer f in
    if not (write_trace cmd file tracer) then 2
    else begin
      Printf.eprintf "trace: %d spans written to %s\n"
        (List.length (Lt_obs.Trace.spans tracer)) file;
      code
    end

(* print a driver's report, then write its trace if asked; the exit
   code is 0 when the run was [contained], 1 when not, 2 when the trace
   cannot be written *)
let emit cmd format ~text ~json ~contained ?trace report =
  print_string (match format with Text -> text report | Json -> json report);
  match trace with
  | Some (Some file, tracer) when not (write_trace cmd file tracer) -> 2
  | _ -> if contained report then 0 else 1

(* one stderr line naming the command, then exit [code] *)
let fail cmd code msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  code

(* --- meter -------------------------------------------------------------------- *)

let cmd_meter tamper =
  let tampers =
    match tamper with
    | None -> Scenario_meter.all_tampers
    | Some name ->
      (match
         List.find_opt
           (fun t -> Scenario_meter.tamper_name t = name)
           Scenario_meter.all_tampers
       with
       | Some t -> [ t ]
       | None ->
         Printf.eprintf "unknown tamper %S; known: %s\n" name
           (String.concat ", "
              (List.map Scenario_meter.tamper_name Scenario_meter.all_tampers));
         (* a bad flag value is a usage error, not a failed scenario *)
         exit 2)
  in
  Printf.printf "%-26s %-10s %-8s %-9s %s\n" "scenario" "anonymizer" "sent"
    "accepted" "detail";
  let staging_failed = ref false in
  List.iter
    (fun t ->
      match Scenario_meter.run t with
      | Ok o ->
        Printf.printf "%-26s %-10b %-8b %-9b %s\n" (Scenario_meter.tamper_name t)
          o.Scenario_meter.anonymizer_verified o.Scenario_meter.reading_sent
          o.Scenario_meter.reading_accepted o.Scenario_meter.detail
      | Error e ->
        staging_failed := true;
        Printf.printf "%-26s cannot stage: %s\n" (Scenario_meter.tamper_name t) e)
    tampers;
  if !staging_failed then 1 else 0

(* --- gateway ------------------------------------------------------------------- *)

let cmd_gateway () =
  let direct, gated_victims, gated_utility = Scenario_meter.gateway_demo () in
  Printf.printf "flood without gateway: %d packets reached victims\n" direct;
  Printf.printf "flood through gateway: %d packets reached victims\n" gated_victims;
  Printf.printf "legitimate telemetry delivered: %d packets\n" gated_utility;
  0

(* --- run: deterministic load against a deployed scenario --------------------------- *)

let cmd_run scenario requests seed format trace_file trace_capacity drop delay
    compromise =
  let module L = Lt_load.Load in
  if requests <= 0 then fail "run" 2 "--requests must be positive"
  else if drop < 0 || delay < 0 || compromise < 0 || drop + delay + compromise > 100
  then
    fail "run" 2 "fault percentages must be non-negative and sum to at most 100"
  else
    let faults = { L.drop_pct = drop; delay_pct = delay; compromise_pct = compromise } in
    match L.run ~faults ?trace_capacity ~scenario ~requests ~seed () with
    | Error e -> fail "run" 1 e
    | Ok (report, tracer) ->
      emit "run" format ~text:L.render_report_text ~json:L.render_report_json
        ~contained:(fun r -> r.L.r_errors = 0)
        ~trace:(trace_file, tracer) report

(* --- chaos: the load scenarios under seeded destruction ------------------------- *)

let cmd_chaos scenario requests seed format trace_file trace_capacity kill
    kill_pct flap mid_ipc =
  let module C = Lt_resil.Chaos in
  if requests <= 0 then fail "chaos" 2 "--requests must be positive"
  else
    let plan = { C.kill; kill_pct; flap; mid_ipc_pct = mid_ipc } in
    match C.run ~plan ?trace_capacity ~scenario ~requests ~seed () with
    | Error e -> fail "chaos" 2 e
    | Ok (report, tracer) ->
      emit "chaos" format ~text:C.render_report_text ~json:C.render_report_json
        ~contained:C.contained ~trace:(trace_file, tracer) report

(* --- fleet: machine kills and partitions across attested hosts ------------------ *)

(* "HOST:FROM[:TO][:asym]" -> a scheduled partition *)
let parse_partition_spec s =
  let parts = String.split_on_char ':' s in
  let asym, parts =
    match List.rev parts with
    | "asym" :: rest -> (true, List.rev rest)
    | _ -> (false, parts)
  in
  let int_at what v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "partition %S: bad %s %S" s what v)
  in
  let spec host from heal =
    Result.bind (int_at "start" from) (fun pt_from ->
        Result.map
          (fun pt_heal ->
            { Lt_fleet.Fleet_chaos.pt_host = host; pt_from; pt_heal; pt_asym = asym })
          (int_at "heal" heal))
  in
  match parts with
  | [ host; from ] -> spec host from "0"
  | [ host; from; heal ] -> spec host from heal
  | _ -> Error (Printf.sprintf "partition %S: want HOST:FROM[:TO][:asym]" s)

let cmd_fleet hosts requests seed format trace_file trace_capacity kill_hosts
    partitions rogue replay =
  let module Fc = Lt_fleet.Fleet_chaos in
  let rec plan_of acc = function
    | [] -> Ok { Fc.kill_hosts; partitions = List.rev acc }
    | s :: rest -> Result.bind (parse_partition_spec s) (fun p -> plan_of (p :: acc) rest)
  in
  let setup =
    match replay with
    | Some path ->
      Result.map
        (fun r ->
          (r.Fc.rp_hosts, r.Fc.rp_requests, r.Fc.rp_seed, r.Fc.rp_rogue,
           r.Fc.rp_plan))
        (Fc.load_repro path)
    | None ->
      Result.map (fun plan -> (hosts, requests, seed, rogue, plan))
        (plan_of [] partitions)
  in
  match setup with
  | Error e -> fail "fleet" 2 e
  | Ok (_, requests, _, _, _) when requests <= 0 ->
    fail "fleet" 2 "--requests must be positive"
  | Ok (hosts, requests, seed, rogue, plan) ->
    (match Fc.run ~plan ~rogue ?trace_capacity ~hosts ~requests ~seed () with
     | Error e -> fail "fleet" 2 e
     | Ok (report, tracer) ->
       emit "fleet" format ~text:Fc.render_report_text ~json:Fc.render_report_json
         ~contained:Fc.contained ~trace:(trace_file, tracer) report)

(* --- scale: sharded multi-tenant scale-out ------------------------------------- *)

let cmd_scale scenario tenants shards requests batch seed format admit_rate
    admit_burst kill_shards kill_after verdicts =
  let module Sc = Lt_scale.Scale in
  let cfg =
    { Sc.sc_scenario = scenario;
      sc_tenants = tenants;
      sc_shards = shards;
      sc_requests_per_tenant = requests;
      sc_batch = batch;
      sc_seed = seed;
      sc_admit_rate = admit_rate;
      sc_admit_burst = admit_burst;
      sc_kill_shards = kill_shards;
      sc_kill_after = kill_after }
  in
  if verdicts then begin
    match Sc.fleet_manifests cfg with
    | Error e -> fail "scale" 2 e
    | Ok ms ->
      let diags = Lint.run ms in
      let flow = Flow.analyze ms in
      let cont = Contain.analyze ms in
      print_string (Lint.render_domain_verdicts ms diags);
      print_string (Flow.render_domain_verdicts ms flow);
      print_string (Contain.render_domain_verdicts ms cont);
      if Flow.cross_tenant_leaks ms flow = [] && Contain.cross_tenant_radius ms cont = []
      then 0
      else 1
  end
  else begin
    match Sc.run cfg with
    | Error e -> fail "scale" 2 e
    | Ok report ->
      emit "scale" format ~text:Sc.render_report_text ~json:Sc.render_report_json
        ~contained:Sc.contained report
  end

(* --- hunt: differential fuzzing across substrates ------------------------------- *)

let cmd_hunt seed budget engine format replays =
  if budget <= 0 then fail "hunt" 2 "--budget must be positive"
  else if replays <> [] then begin
    (* replay mode: every reproducer must pass (its bug stays fixed) *)
    let failed = ref 0 in
    List.iter
      (fun path ->
        match Lt_fuzz.Hunt.replay_file path with
        | Ok () -> Printf.printf "%s: ok\n" path
        | Error e ->
          incr failed;
          Printf.printf "%s: FAIL %s\n" path e)
      replays;
    if !failed > 0 then 1 else 0
  end
  else begin
    let engines =
      match engine with
      | None -> Lt_fuzz.Hunt.all_engines
      | Some name ->
        (match Lt_fuzz.Hunt.engine_of_name name with
         | Some e -> [ e ]
         | None ->
           Printf.eprintf
             "hunt: unknown engine %S (manifest, substrate, storage, analysis, \
              contain)\n"
             name;
           exit 2)
    in
    let report =
      Lt_fuzz.Hunt.run ~engines ~seed:(Int64.of_int seed) ~budget ()
    in
    (match format with
     | Text -> print_string (Lt_fuzz.Hunt.render_text report)
     | Json -> print_string (Lt_fuzz.Hunt.render_json report));
    if Lt_fuzz.Hunt.ok report then 0 else 1
  end

(* --- analyze a user-provided manifest file --------------------------------------- *)

let cmd_analyze file exploit path =
  match Manifest_file.load file with
  | Error e ->
    (* unparseable input is a usage error (2), like lint and flow *)
    Printf.eprintf "error: %s\n" e;
    2
  | Ok manifests ->
    let app = App.create () in
    List.iter (App.add_stub app) manifests;
    (match App.validate app with
     | Ok () -> Printf.printf "%s: %d components, manifests consistent\n" file
                  (List.length manifests)
     | Error errs ->
       Printf.printf "%s: %d components, %d dangling connections:\n" file
         (List.length manifests) (List.length errs);
       List.iter (Printf.printf "  %s\n") errs);
    Printf.printf "\ndomains:\n";
    List.iter
      (fun (d, cs) -> Printf.printf "  %-14s %s\n" d (String.concat ", " cs))
      (Analysis.domains app);
    let tcb_of_substrate = Lint_rules.default_tcb_of_substrate in
    Printf.printf "\n%-16s %-10s %-14s %-10s\n" "component" "tcb-loc" "owned-if-hit"
      "surface";
    List.iter
      (fun m ->
        let name = m.Manifest.name in
        let r = Analysis.compromise_reach app name in
        Printf.printf "%-16s %-10d %-14s %-10d\n" name
          (Analysis.tcb app ~tcb_of_substrate name)
          (Printf.sprintf "%.0f%%" (100. *. r.Analysis.owned_fraction))
          (Analysis.attack_surface app name))
      manifests;
    (match exploit with
     | None -> ()
     | Some name ->
       let r = Analysis.compromise_reach app name in
       Printf.printf "\nexploiting %s: %s\n" name
         (Format.asprintf "%a" Analysis.pp_reach r));
    (match path with
     | None -> ()
     | Some spec ->
       (match String.split_on_char ':' spec with
        | [ src; dst ] ->
          let max_paths = 1000 in
          let s = Analysis.paths ~max_paths app ~src ~dst in
          Printf.printf "\nauthority paths %s -> %s: %d%s\n" src dst
            (List.length s.Analysis.ps_paths)
            (if s.Analysis.ps_truncated then
               Printf.sprintf " (truncated at %d; use `lateral flow` for reachability)"
                 max_paths
             else "");
          List.iter
            (fun p -> Printf.printf "  %s\n" (String.concat " -> " p))
            s.Analysis.ps_paths
        | _ -> Printf.eprintf "expected --path SRC:DST\n"));
    let risks = Analysis.confused_deputy_risks app in
    Printf.printf "\nconfused deputy risks: %d\n" (List.length risks);
    List.iter
      (fun (c, s, callers) ->
        Printf.printf "  %s.%s serves %s without badge checks\n" c s
          (String.concat ", " callers))
      risks;
    0

(* --- manifest files: the one loader behind lint, flow, check and contain ----------- *)

(* every file joins ONE fleet: cross-file hazards — a target declared in
   another file, duplicate names across files — are first-class findings,
   not blind spots. [errors] holds one "FILE: message" line per file that
   did not parse, in argument order; each command keeps its own policy
   for them *)
type manifest_files = {
  loaded : (string * Manifest_file.span list) list;
  label : string;
  manifests : Manifest.t list;
  hosts : Manifest.host list;
  errors : string list;
}

let load_manifest_files files =
  let ok, errors =
    List.partition_map
      (fun file ->
        match Manifest_file.load_fleet_spanned file with
        | Ok (spans, hosts) -> Left (file, spans, hosts)
        | Error e -> Right (Printf.sprintf "%s: %s" file e))
      files
  in
  let loaded = List.map (fun (f, spans, _) -> (f, spans)) ok in
  { loaded;
    label = String.concat ", " (List.map fst loaded);
    manifests =
      List.concat_map
        (fun (_, spans) -> List.map (fun s -> s.Manifest_file.sp_manifest) spans)
        loaded;
    hosts = List.concat_map (fun (_, _, hs) -> hs) ok;
    errors }

(* --- lint: the static checker over manifest files --------------------------------- *)

let cmd_lint files format show_rules =
  if show_rules then begin
    print_string (Lint.catalogue_text ());
    0
  end
  else if files = [] then
    fail "lint" 2 "no manifest file given (try --rules for the catalogue)"
  else begin
    let mf = load_manifest_files files in
    List.iter (Printf.eprintf "%s\n") mf.errors;
    let config =
      { Lint_rules.default_config with Lint_rules.declared_hosts = mf.hosts }
    in
    let diags = Lint.locate_all mf.loaded (Lint.run ~config mf.manifests) in
    (match format with
     | Text ->
       if mf.loaded <> [] then print_string (Lint.render_text ~file:mf.label diags)
     | Json ->
       print_string
         ("["
         ^ (if mf.loaded = [] then "" else Lint.render_json ~file:mf.label diags)
         ^ "]\n"));
    if mf.errors <> [] then 2 else if Lint.has_errors diags then 1 else 0
  end

(* --- flow: information-flow analysis and kernel conformance ----------------------- *)

let cmd_flow files format dot conform =
  if files = [] then fail "flow" 2 "no manifest file given"
  else begin
    (* like lint: all the files are one fleet, one lattice, one report *)
    let mf = load_manifest_files files in
    List.iter (Printf.eprintf "%s\n") mf.errors;
    if mf.loaded = [] then begin
      if (not dot) && format = Json then print_string "[]\n";
      2
    end
    else begin
      let label = mf.label and manifests = mf.manifests in
      let any_violation = ref false in
      let r = Flow.analyze manifests in
      let conf =
        if not conform then None
        else
          match Flow.provision manifests with
          | Error e ->
            Printf.eprintf "%s: cannot provision: %s\n" label e;
            any_violation := true;
            None
          | Ok d ->
            let c = Flow.conformance manifests d.Flow.d_kernel in
            if c.Flow.over <> [] then any_violation := true;
            Some c
      in
      if Flow.has_leaks r then any_violation := true;
      (if dot then print_string (Flow.to_dot manifests r)
       else
         match format with
         | Text -> print_string (Flow.render_text ~file:label ?conformance:conf r)
         | Json ->
           print_string ("[" ^ Flow.render_json ~file:label ?conformance:conf r ^ "]\n"));
      if mf.errors <> [] then 2 else if !any_violation then 1 else 0
    end
  end

(* --- check: delta-driven incremental analysis -------------------------------------- *)

let cmd_check files deltas_file format verify =
  if files = [] then fail "check" 2 "no manifest file given"
  else begin
    let mf = load_manifest_files files in
    let deltas =
      match deltas_file with
      | None -> Ok []
      | Some path ->
        (match Delta.load_script_located path with
         | Ok ds -> Ok ds
         | Error { Delta.pe_line = 0; pe_msg } ->
           Error (Printf.sprintf "%s: %s" path pe_msg)
         | Error { Delta.pe_line; pe_msg } ->
           (* same file:line: shape as a located lint diagnostic *)
           let loc = { Diagnostic.file = path; line = pe_line } in
           Error
             (Printf.sprintf "%s:%d: %s" loc.Diagnostic.file
                loc.Diagnostic.line pe_msg))
    in
    (* the first unparseable file stops the run *)
    match (mf.errors, deltas) with
    | e :: _, _ | [], Error e ->
      Printf.eprintf "%s\n" e;
      2
    | [], Ok deltas ->
      let label = mf.label in
      let config =
        { Lint_rules.default_config with Lint_rules.declared_hosts = mf.hosts }
      in
      let st = Check.create ~config mf.manifests in
      let any_error = ref false in
      let diverged = ref None in
      let text_steps = Buffer.create 256 and json_steps = ref [] in
      let flow_word st =
        match (Check.flow_result st).Flow.verdict with
        | Flow.Secure -> "secure"
        | Flow.Leak ls -> Printf.sprintf "leak(%d)" (List.length ls)
      in
      let record n what st diags =
        let s = Lint.summarize diags in
        if Lint.has_errors diags then any_error := true;
        let components = List.length (Check.manifests st) in
        (match format with
         | Text ->
           Buffer.add_string text_steps
             (Printf.sprintf
                "step %2d  %-36s %d components, %d errors, %d warnings, %d \
                 infos, flow %s\n"
                n what components s.Lint.errors s.Lint.warnings s.Lint.infos
                (flow_word st))
         | Json ->
           let module J = Lt_obs.Json in
           json_steps :=
             J.Obj
               [ ("step", J.Int n); ("delta", J.Str what);
                 ("components", J.Int components);
                 ( "summary",
                   J.counts
                     [ ("errors", s.Lint.errors); ("warnings", s.Lint.warnings);
                       ("infos", s.Lint.infos) ] );
                 ("flow", J.Str (flow_word st)) ]
             :: !json_steps);
        if verify && !diverged = None then
          match Check.divergence st with
          | Some reason -> diverged := Some (n, what, reason)
          | None -> ()
      in
      record 0 "baseline" st (Check.diagnostics st);
      let _, final =
        List.fold_left
          (fun (n, st) d ->
            let st, diags = Check.apply d st in
            record n (Delta.describe d) st diags;
            (n + 1, st))
          (1, st) deltas
      in
      (match format with
       | Text ->
         print_string (Buffer.contents text_steps);
         print_newline ();
         print_string (Lint.render_text ~file:label (Check.diagnostics final))
       | Json ->
         print_string
           (Lt_obs.Json.to_string (Lt_obs.Json.List (List.rev !json_steps)) ^ "\n"));
      (match !diverged with
       | Some (n, what, reason) ->
         Printf.eprintf "check: step %d (%s): %s\n" n what reason;
         2
       | None -> if !any_error then 1 else 0)
  end

(* --- contain: static blast-radius analysis ------------------------------------------ *)

let contain_rule_ids =
  [ "L020-unbounded-blast-radius"; "L021-single-point-of-failure";
    "L022-restart-storm-cycle"; "L023-stateful-dependency-unshielded" ]

let cmd_contain files format dot witness =
  if files = [] then fail "contain" 2 "no manifest file given"
  else begin
    (* like lint: every file joins one fleet, one propagation graph *)
    let mf = load_manifest_files files in
    List.iter (Printf.eprintf "%s\n") mf.errors;
    if mf.errors <> [] then 2
    else begin
      let label = mf.label and manifests = mf.manifests in
      let r = Contain.analyze manifests in
      match witness with
      | Some root ->
        (match
           List.find_opt (fun x -> x.Contain.r_root = root) r.Contain.radii
         with
         | None ->
           Printf.eprintf "contain: unknown component %S\n" root;
           2
         | Some radius ->
           (match radius.Contain.r_escape with
            | None ->
              Printf.printf "%s: a crash of %s stays inside its domain\n" label
                root
            | Some x ->
              Printf.printf
                "%s: a crash of %s escapes its domain: %d outside victim(s), \
                 worst %s (%s)\n  %s\n"
                label root x.Contain.x_outside x.Contain.x_victim
                (Contain.impact_to_string x.Contain.x_impact)
                (String.concat " -> " x.Contain.x_path));
           0)
      | None ->
        if dot then begin
          print_string (Contain.to_dot manifests r);
          0
        end
        else begin
          let diags =
            Lint.locate_all mf.loaded
              (List.filter
                 (fun d -> List.mem d.Diagnostic.rule_id contain_rule_ids)
                 (Lint.run manifests))
          in
          (match format with
           | Text ->
             print_string (Contain.render_text ~file:label r);
             if diags <> [] then begin
               print_newline ();
               print_string (Lint.render_text ~file:label diags)
             end
           | Json ->
             print_string
               ("[" ^ Contain.render_json ~file:label r ^ ","
               ^ Lint.render_json ~file:label diags
               ^ "]\n"));
          if Lint.has_errors diags then 1 else 0
        end
    end
  end

(* --- snap --------------------------------------------------------------------- *)

(* world digests for the scenario deployments: boot at a fixed seed,
   print the whole-world digest (or every layer with --layers), and
   prove the fork -> mutate -> restore round-trip on each one *)
let cmd_snap scenario layers seed =
  let scenarios =
    match scenario with Some s -> [ s ] | None -> Lt_load.Load.all_scenarios
  in
  let failed = ref false in
  List.iter
    (fun s ->
      let name = Lt_load.Load.scenario_name s in
      match
        Lt_load.Load.deploy_scenario (Lt_crypto.Drbg.create (Int64.of_int seed)) s
      with
      | Error e ->
        failed := true;
        Printf.printf "%-5s  boot failed: %s\n" name e
      | Ok d ->
        let w = d.Lt_load.Load.d_world in
        let d0 = Lt_world.World.digest w in
        let pristine = Lt_world.World.fork w in
        let rng = Lt_crypto.Drbg.create 0xfeedL in
        for i = 0 to 4 do
          let target, service, payload = d.Lt_load.Load.d_mix rng i in
          ignore
            (Lateral.Deploy.call d.Lt_load.Load.d_deploy ~caller:None ~target
               ~service payload)
        done;
        Lt_world.World.restore w pristine;
        let round_trip = Lt_world.World.digest w = d0 in
        if not round_trip then failed := true;
        Printf.printf "%-5s  world %s  layers %d  round-trip %s\n" name
          (Lt_world.Digest64.to_hex d0)
          (List.length (Lt_world.World.layers w))
          (if round_trip then "ok" else "FAILED");
        if layers then
          List.iter
            (fun (lname, ld) ->
              Printf.printf "       %-28s %s\n" lname (Lt_world.Digest64.to_hex ld))
            (Lt_world.World.layer_digests w))
    scenarios;
  if !failed then 1 else 0

(* --- cmdliner wiring ------------------------------------------------------------ *)

open Cmdliner

(* the one exit-code convention, shared by every subcommand: 0 ok,
   1 findings-or-failures, 2 usage-or-divergence (see the README) *)
let std_exits =
  [ Cmd.Exit.info 0 ~doc:"on success: the run finished and every check passed.";
    Cmd.Exit.info 1
      ~doc:
        "on findings or failures: an error-severity diagnostic, a flow leak, \
         a failed request, a containment violation or a failed replay.";
    Cmd.Exit.info 2
      ~doc:
        "on usage or input errors (unknown flags or values, unparseable \
         manifest files or delta scripts) and on incremental/batch \
         divergence under $(b,--verify).";
    Cmd.Exit.info 125 ~doc:"on unexpected internal errors." ]

let substrates_cmd =
  Cmd.v
    (Cmd.info "substrates" ~exits:std_exits
       ~doc:"Compare the isolation substrates' properties (paper Table, \u{a7}II)")
    Term.(const cmd_substrates $ const ())

let mail_cmd =
  let vertical =
    Arg.(value & flag & info [ "vertical" ] ~doc:"Analyse the monolithic shape")
  in
  let exploit =
    Arg.(
      value
      & opt (some string) None
      & info [ "exploit" ] ~docv:"COMPONENT" ~doc:"Show the blast radius of one exploit")
  in
  Cmd.v
    (Cmd.info "mail" ~exits:std_exits ~doc:"Analyse the email-client scenario (Figure 1)")
    Term.(const cmd_mail $ vertical $ exploit)

(* the flags the drivers share, each defined once; commands pass their
   own help text where it differs *)

let scenario_conv =
  Arg.enum
    (List.map (fun s -> (Lt_load.Load.scenario_name s, s)) Lt_load.Load.all_scenarios)

(* SCENARIO as an optional positional; [Arg.required] or [Arg.value]
   decides whether a command insists on one *)
let scenario_pos doc =
  Arg.(pos 0 (some scenario_conv) None & info [] ~docv:"SCENARIO" ~doc)

let requests_arg ?(default = 100) doc =
  Arg.(value & opt int default & info [ "requests"; "n" ] ~docv:"N" ~doc)

let seed_arg ?(default = 1) doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: $(b,text) or $(b,json)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of every span to $(docv)")

let trace_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Bound the span ring buffer (oldest spans evicted first)")

let requests_doc = "Number of requests to replay"

let meter_cmd =
  let tamper =
    Arg.(
      value
      & opt (some string) None
      & info [ "tamper" ] ~docv:"TAMPER" ~doc:"Run one tamper scenario only")
  in
  Cmd.v
    (Cmd.info "meter" ~exits:std_exits ~doc:"Run the smart-meter scenario (Figure 3)")
    Term.(
      const (fun trace tamper -> with_trace "meter" trace (fun () -> cmd_meter tamper))
      $ trace_arg $ tamper)

let gateway_cmd =
  Cmd.v
    (Cmd.info "gateway" ~exits:std_exits ~doc:"Run the IoT DDoS gateway demo")
    Term.(const (fun trace -> with_trace "gateway" trace cmd_gateway) $ trace_arg)

let run_cmd =
  let scenario =
    Arg.required
      (scenario_pos "Scenario to deploy and load: $(b,mail), $(b,meter) or $(b,cloud)")
  in
  let seed =
    seed_arg
      "Seed for the request mix, payloads and fault schedule; equal seeds give \
       byte-identical traces and reports"
  in
  let drop =
    Arg.(
      value & opt int 0
      & info [ "drop" ] ~docv:"PCT" ~doc:"Percent of requests dropped before issue")
  in
  let delay =
    Arg.(
      value & opt int 0
      & info [ "delay" ] ~docv:"PCT"
          ~doc:"Percent of requests delayed (logical ticks) before issue")
  in
  let compromise =
    Arg.(
      value & opt int 0
      & info [ "compromise" ] ~docv:"PCT"
          ~doc:"Percent of requests replaced by an off-manifest probe from a \
                compromised caller")
  in
  Cmd.v
    (Cmd.info "run" ~exits:std_exits
       ~doc:
         "Deploy a scenario onto simulated substrates and replay a seeded, \
          deterministic request mix with optional fault injection; exits 1 if \
          any request errored")
    Term.(
      const cmd_run $ scenario $ requests_arg requests_doc $ seed $ format_arg
      $ trace_arg $ trace_capacity_arg $ drop $ delay $ compromise)

let chaos_cmd =
  let scenario =
    Arg.required
      (scenario_pos "Scenario to torture: $(b,mail), $(b,meter) or $(b,cloud)")
  in
  let seed =
    seed_arg
      "Seed for the kill schedule, request mix and backoff jitter; equal seeds \
       give byte-identical chaos reports"
  in
  let kill =
    Arg.(
      value & opt_all string []
      & info [ "kill" ] ~docv:"COMPONENT"
          ~doc:
            "Kill $(docv) once, at a seeded instant (repeatable). The pseudo \
             component $(b,legacy_os) instead cuts power to the mail \
             scenario's storage backend mid-mutation")
  in
  let kill_pct =
    Arg.(
      value & opt int 0
      & info [ "kill-pct" ] ~docv:"PCT"
          ~doc:"Percent of requests preceded by killing a random live component")
  in
  let flap =
    Arg.(
      value
      & opt (some string) None
      & info [ "flap" ] ~docv:"COMPONENT"
          ~doc:
            "Kill $(docv) again whenever it is found alive, until its restart \
             budget is spent and its routes' breakers open")
  in
  let mid_ipc =
    Arg.(
      value & opt int 0
      & info [ "mid-ipc" ] ~docv:"PCT"
          ~doc:
            "Firing percentage for the substrate fault points (kill mid-IPC \
             on the microkernel, mid-ecall on SGX)")
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:std_exits
       ~doc:
         "Replay a scenario while killing components at seeded instants; \
          audits blast-radius containment, VPFS crash consistency against a \
          shadow oracle, and secrecy across crashes. Exits 0 when contained, \
          1 on a containment violation, 2 on setup errors")
    Term.(
      const cmd_chaos $ scenario $ requests_arg requests_doc $ seed $ format_arg
      $ trace_arg $ trace_capacity_arg $ kill $ kill_pct $ flap $ mid_ipc)

let fleet_cmd =
  let hosts =
    Arg.(
      value & opt int 3
      & info [ "hosts" ] ~docv:"N"
          ~doc:"Simulated machines $(b,host-1) .. $(b,host-N), each offering \
                microkernel, sgx and sep substrates")
  in
  let seed =
    seed_arg
      "Seed for host keys, kill instants, placement order, the request mix \
       and backoff jitter; equal seeds give byte-identical fleet reports"
  in
  let kill_hosts =
    Arg.(
      value & opt_all string []
      & info [ "kill-host" ] ~docv:"HOST"
          ~doc:"Kill the whole machine once, at a seeded instant (repeatable); \
                its clusters fail over to surviving attested hosts")
  in
  let partitions =
    Arg.(
      value & opt_all string []
      & info [ "partition" ] ~docv:"HOST:FROM[:TO][:asym]"
          ~doc:
            "Cut controller\xe2\x86\x94$(b,HOST) when request $(b,FROM) begins, heal \
             at $(b,TO) (omitted: never). Append $(b,:asym) to cut only the \
             host's replies \xe2\x80\x94 commands still arrive, acknowledgements are \
             lost, and stale placements are fenced after the heal (repeatable)")
  in
  let rogue =
    Arg.(
      value & opt_all string []
      & info [ "rogue" ] ~docv:"HOST"
          ~doc:"Run a tampered agent on $(docv) (repeatable): TLS still \
                succeeds, attestation never does, and the audit asserts the \
                host receives zero placements")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"REPRO-FILE"
          ~doc:"Replay a minimized fleet reproducer (see test/corpus) instead \
                of the command-line plan; the file fixes hosts, requests, \
                seed, rogue set and schedule")
  in
  Cmd.v
    (Cmd.info "fleet" ~exits:std_exits
       ~doc:
         "Run the built-in three-cluster app across N simulated machines \
          joined only by attested channels, killing hosts and cutting the \
          network at seeded instants. Audits that failover stays within the \
          static blast radius and that no component is ever placed on a host \
          failing attestation. Exits 0 when contained, 1 on a violation, 2 on \
          a bad plan")
    Term.(
      const cmd_fleet $ hosts $ requests_arg requests_doc $ seed $ format_arg
      $ trace_arg $ trace_capacity_arg $ kill_hosts $ partitions $ rogue $ replay)

let hunt_cmd =
  let seed =
    seed_arg
      "Seed for every engine's generation stream; equal seeds give \
       byte-identical hunt reports"
  in
  let budget =
    Arg.(
      value & opt int 25
      & info [ "budget" ] ~docv:"N" ~doc:"Generated cases per engine")
  in
  let engine =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Run one engine only: $(b,manifest), $(b,substrate), $(b,storage) \
             or $(b,analysis)")
  in
  let replays =
    Arg.(
      value & opt_all file []
      & info [ "replay" ] ~docv:"REPRO-FILE"
          ~doc:"Replay a corpus reproducer instead of generating (repeatable); \
                every reproducer must pass")
  in
  Cmd.v
    (Cmd.info "hunt" ~exits:std_exits
       ~doc:
         "Differential fuzzing: manifest-toolchain totality, cross-substrate \
          agreement against a reference model, and storage crash/corruption \
          robustness. Failures are shrunk to minimal reproducers. Exits 0 \
          when clean, 1 on failures, 2 on usage errors")
    Term.(const cmd_hunt $ seed $ budget $ engine $ format_arg $ replays)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST-FILE")
  in
  let exploit =
    Arg.(
      value
      & opt (some string) None
      & info [ "exploit" ] ~docv:"COMPONENT" ~doc:"Show the blast radius of one exploit")
  in
  let path =
    Arg.(
      value
      & opt (some string) None
      & info [ "path" ] ~docv:"SRC:DST" ~doc:"Enumerate authority paths")
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:std_exits
       ~doc:"Analyse a component architecture described in a manifest file")
    Term.(const cmd_analyze $ file $ exploit $ path)

let manifest_files = Arg.(value & pos_all file [] & info [] ~docv:"MANIFEST-FILE")

let lint_cmd =
  let show_rules =
    Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit")
  in
  Cmd.v
    (Cmd.info "lint" ~exits:std_exits
       ~doc:
         "Statically check manifest files for trust hazards; exits 1 if any \
          error-severity diagnostic fires (CI gate), 2 on parse failure")
    Term.(const cmd_lint $ manifest_files $ format_arg $ show_rules)

let flow_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the labelled channel graph in Graphviz DOT")
  in
  let conform =
    Arg.(
      value & flag
      & info [ "conform" ]
          ~doc:
            "Provision the manifests onto a simulated microkernel and check \
             the de-facto capability state against the declared graph")
  in
  Cmd.v
    (Cmd.info "flow" ~exits:std_exits
       ~doc:
         "Lattice-based information-flow analysis over manifest files; exits 1 \
          on a leak or conformance over-privilege (CI gate), 2 on parse failure")
    Term.(const cmd_flow $ manifest_files $ format_arg $ dot $ conform)

let check_cmd =
  let deltas =
    Arg.(
      value
      & opt (some file) None
      & info [ "deltas" ] ~docv:"SCRIPT"
          ~doc:
            "Delta script to replay against the fleet (see \
             $(b,docs/INCREMENTAL.md) for the format); without it only the \
             baseline fleet is checked")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After every step, re-run the from-scratch batch analysis and \
             exit 2 on any divergence from the incremental state")
  in
  Cmd.v
    (Cmd.info "check" ~exits:std_exits
       ~doc:
         "Incrementally re-analyse a manifest fleet under a script of \
          control-plane deltas; prints one verdict line per step, exits 1 if \
          any step has an error-severity finding, 2 on parse failure or \
          incremental/batch divergence")
    Term.(const cmd_check $ manifest_files $ deltas $ format_arg $ verify)

let contain_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the fault-propagation graph in Graphviz DOT (nodes coloured \
             by crash impact, escape roots double-bordered)")
  in
  let witness =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness" ] ~docv:"COMPONENT"
          ~doc:
            "Print only the named component's escape witness: the propagation \
             path by which its crash damages another protection domain")
  in
  Cmd.v
    (Cmd.info "contain" ~exits:std_exits
       ~doc:
         "Static blast-radius analysis over manifest files: per component, \
          the worst-case set of components its crash fails, restarts or \
          degrades, as a fixpoint over propagation edges (channels, shared \
          domains, supervision, state). The chaos harness's observed radii \
          are property-checked to stay inside these predictions. Exits 1 on \
          error-severity containment findings (L020-L023), 2 on parse failure")
    Term.(const cmd_contain $ manifest_files $ format_arg $ dot $ witness)

let snap_cmd =
  let scenario =
    Arg.value (scenario_pos "Scenario world to digest (default: all three)")
  in
  let layers =
    Arg.(value & flag & info [ "layers" ] ~doc:"Print every layer's digest")
  in
  let seed =
    seed_arg ~default:0x5eed
      "Deployment seed; equal seeds boot digest-identical worlds"
  in
  Cmd.v
    (Cmd.info "snap" ~exits:std_exits
       ~doc:"Digest the scenario worlds and prove their snapshot round-trips")
    Term.(const cmd_snap $ scenario $ layers $ seed)

let scale_cmd =
  let scenario =
    Term.(
      const (Option.value ~default:Lt_load.Load.Mail)
      $ Arg.value
          (scenario_pos
             "Scenario each tenant instance runs: $(b,mail), $(b,meter) or \
              $(b,cloud) (default mail)"))
  in
  let tenants =
    Arg.(
      value & opt int 100
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Tenant instances, each a copy-on-write fork of its shard's \
                template world, in trust domain $(b,shard-k/tenant-i)")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Template deployments; tenants are sharded round-robin")
  in
  let requests =
    requests_arg ~default:8 "Requests per tenant (total load = tenants \xc3\x97 N)"
  in
  let batch =
    Arg.(
      value & opt int 4
      & info [ "batch" ] ~docv:"N"
          ~doc:"Requests issued per tenant visit before the router forks the \
                tenant's world and moves on")
  in
  let seed =
    seed_arg
      "Seed for deployment and per-tenant mixes; equal seeds give \
       byte-identical scale reports, and tenant $(b,i)'s traffic digest is \
       independent of the tenant count"
  in
  let admit_rate =
    Arg.(
      value & opt float 1.0
      & info [ "admit-rate" ] ~docv:"R"
          ~doc:"Gateway token-bucket refill per admission tick, per shard")
  in
  let admit_burst =
    Arg.(
      value & opt float 32.0
      & info [ "admit-burst" ] ~docv:"B" ~doc:"Gateway token-bucket burst")
  in
  let kill_shards =
    Arg.(
      value & opt_all int []
      & info [ "kill-shard" ] ~docv:"K"
          ~doc:"Kill shard $(docv) (repeatable): every tenant in its domain \
                set is refused from then on, and the audit asserts no other \
                domain observes a failure")
  in
  let kill_after =
    Arg.(
      value & opt int 0
      & info [ "kill-after" ] ~docv:"ROUND"
          ~doc:"Round at whose start the kills fire (0: never)")
  in
  let verdicts =
    Arg.(
      value & flag
      & info [ "verdicts" ]
          ~doc:"Instead of running load, materialise the fleet's static \
                manifests and print per-trust-domain lint/flow/contain \
                verdicts; exits 1 on any cross-tenant witness")
  in
  Cmd.v
    (Cmd.info "scale" ~exits:std_exits
       ~doc:
         "Multiplex N tenant instances \xe2\x80\x94 world forks of per-shard template \
          deployments \xe2\x80\x94 behind gateway admission, in nested trust domains. \
          Exits 0 when the observed blast radius stays inside the killed \
          shards' domain set, 1 on a cross-domain failure, 2 on usage errors")
    Term.(
      const cmd_scale $ scenario $ tenants $ shards $ requests $ batch $ seed
      $ format_arg $ admit_rate $ admit_burst $ kill_shards $ kill_after
      $ verdicts)

let () =
  let info =
    Cmd.info "lateral" ~version:"1.0.0"
      ~doc:"Trusted component ecosystem: unified isolation interface and analyses"
  in
  (* bare `lateral` prints the full subcommand listing; usage errors
     (unknown subcommand, missing/malformed argument) exit 2 so scripts
     can tell "you called me wrong" from "the check failed" (exit 1) *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group =
    Cmd.group ~default info
      [ substrates_cmd; mail_cmd; meter_cmd; gateway_cmd; run_cmd; chaos_cmd;
        fleet_cmd; hunt_cmd; analyze_cmd; lint_cmd; flow_cmd; check_cmd;
        contain_cmd; snap_cmd; scale_cmd ]
  in
  exit
    (match Cmd.eval_value group with
     | Ok (`Ok code) -> code
     | Ok (`Help | `Version) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> 125)
