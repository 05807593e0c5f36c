type summary = { errors : int; warnings : int; infos : int }

let run ?(config = Lint_rules.default_config) manifests =
  let ctx = Lint_rules.make_ctx manifests in
  List.concat_map
    (fun (r : Lint_rules.rule) ->
      List.concat_map (r.Lint_rules.check config ctx) manifests)
    Lint_rules.all
  |> List.sort_uniq Diagnostic.compare

let locate_all files diags =
  let loc_of name =
    List.find_map
      (fun (file, spans) ->
        List.find_opt
          (fun s -> s.Manifest_file.sp_manifest.Manifest.name = name)
          spans
        |> Option.map (fun s ->
               { Diagnostic.file; line = s.Manifest_file.sp_line }))
      files
  in
  List.map
    (fun d ->
      match loc_of d.Diagnostic.component with
      | Some loc -> Diagnostic.with_loc loc d
      | None -> d)
    diags
  |> List.sort Diagnostic.compare

let locate ~file spans diags = locate_all [ (file, spans) ] diags

let summarize diags =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      match d.Diagnostic.severity with
      | Diagnostic.Error -> { acc with errors = acc.errors + 1 }
      | Diagnostic.Warning -> { acc with warnings = acc.warnings + 1 }
      | Diagnostic.Info -> { acc with infos = acc.infos + 1 })
    { errors = 0; warnings = 0; infos = 0 }
    diags

let has_errors diags =
  List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags

let render_text ~file diags =
  let s = summarize diags in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d diagnostics (%d errors, %d warnings, %d info)\n"
       file
       (List.length diags)
       s.errors s.warnings s.infos);
  List.iter
    (fun d ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Diagnostic.to_text d);
      Buffer.add_char buf '\n')
    diags;
  Buffer.contents buf

let render_json ~file diags =
  let module Json = Lt_obs.Json in
  let s = summarize diags in
  Json.to_string
    (Json.Obj
       [ ("file", Json.Str file);
         ( "summary",
           Json.counts
             [ ("errors", s.errors); ("warnings", s.warnings); ("infos", s.infos) ] );
         ("diagnostics", Json.List (List.map Diagnostic.to_json diags)) ])

let catalogue () =
  List.map
    (fun (r : Lint_rules.rule) ->
      (r.Lint_rules.id,
       r.Lint_rules.severity,
       r.Lint_rules.summary,
       r.Lint_rules.paper_ref))
    Lint_rules.all

let catalogue_text () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-26s %-8s %-8s %s\n" "rule" "severity" "paper" "meaning");
  List.iter
    (fun (id, sev, summary, paper) ->
      Buffer.add_string buf
        (Printf.sprintf "%-26s %-8s %-8s %s\n" id
           (Diagnostic.severity_to_string sev)
           paper summary))
    (catalogue ());
  Buffer.contents buf

(* --- per-trust-domain verdicts --------------------------------------------- *)

let render_domain_verdicts manifests diags =
  match
    List.filter_map Manifest.tenant_of manifests
    |> List.sort_uniq String.compare
  with
  | [] -> "" (* flat fleet: render nothing, outputs stay byte-identical *)
  | tenants ->
    let tenant_of_component =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun m ->
          if not (Hashtbl.mem tbl m.Manifest.name) then
            Hashtbl.add tbl m.Manifest.name (Manifest.tenant_of m))
        manifests;
      fun n -> Option.join (Hashtbl.find_opt tbl n)
    in
    let buf = Buffer.create 256 in
    Buffer.add_string buf "per-domain verdicts:\n";
    List.iter
      (fun t ->
        let s =
          summarize
            (List.filter
               (fun d -> tenant_of_component d.Diagnostic.component = Some t)
               diags)
        in
        Buffer.add_string buf
          (Printf.sprintf "  tenant %s: %d errors, %d warnings, %d info\n" t
             s.errors s.warnings s.infos))
      tenants;
    Buffer.contents buf
