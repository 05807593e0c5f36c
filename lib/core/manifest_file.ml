type partial = {
  mutable p_domain : string option;
  mutable p_size : int;
  mutable p_substrate : string;
  mutable p_network : bool;
  mutable p_vulnerable : bool;
  mutable p_badges : bool;
  mutable p_provides : string list;
  mutable p_connects : Manifest.connection list;
  mutable p_stateful : bool;
  mutable p_restart : Manifest.restart option;
  mutable p_placement : string list;
}

let fresh_partial () =
  { p_domain = None;
    p_size = 1000;
    p_substrate = "microkernel";
    p_network = false;
    p_vulnerable = false;
    p_badges = true;
    p_provides = [];
    p_connects = [];
    p_stateful = false;
    p_restart = None;
    p_placement = [] }

let finish ?(trust_domain = []) name p =
  Manifest.v ~name ~provides:(List.rev p.p_provides)
    ~connects_to:(List.rev p.p_connects)
    ?domain:p.p_domain ~trust_domain ~size_loc:p.p_size
    ~network_facing:p.p_network
    ~vulnerable:p.p_vulnerable ~discriminates_clients:p.p_badges
    ~substrate:p.p_substrate ~stateful:p.p_stateful ?restart:p.p_restart
    ~placement:(List.rev p.p_placement) ()

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_connection ~vetted ~lineno w =
  match String.index_opt w '.' with
  | Some i when i > 0 && i < String.length w - 1 ->
    Ok
      (Manifest.conn ~vetted
         (String.sub w 0 i)
         (String.sub w (i + 1) (String.length w - i - 1)))
  | _ -> Error (Printf.sprintf "line %d: expected target.service, got %S" lineno w)

type span = { sp_manifest : Manifest.t; sp_line : int }

type host_partial = { hp_name : string; mutable hp_substrates : string list }

type stanza = Comp of string * int * partial | Host of host_partial

let parse_fleet_spanned text =
  let lines = String.split_on_char '\n' text in
  let manifests = ref [] in
  let hosts = ref [] in
  let current : stanza option ref = ref None in
  (* open trust domains, innermost first; a component closed while the
     stack is non-empty carries the (reversed) stack as its path *)
  let domains : string list ref = ref [] in
  let error = ref None in
  let close () =
    (match !current with
     | Some (Comp (name, line, p)) ->
       manifests :=
         { sp_manifest = finish ~trust_domain:(List.rev !domains) name p;
           sp_line = line }
         :: !manifests
     | Some (Host hp) ->
       hosts :=
         Manifest.host ~name:hp.hp_name ~substrates:(List.rev hp.hp_substrates)
         :: !hosts
     | None -> ());
    current := None
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !error <> None then ()
      else begin
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        match split_ws (String.trim line) with
        | [] -> ()
        | "component" :: rest ->
          (match rest with
           | [ name ] ->
             close ();
             if
               List.exists
                 (fun s -> s.sp_manifest.Manifest.name = name)
                 !manifests
             then
               error := Some (Printf.sprintf "line %d: duplicate component %S" lineno name)
             else current := Some (Comp (name, lineno, fresh_partial ()))
           | _ -> error := Some (Printf.sprintf "line %d: component takes one name" lineno))
        | "host" :: rest ->
          (match rest with
           | [ name ] ->
             close ();
             if List.exists (fun h -> h.Manifest.h_name = name) !hosts then
               error := Some (Printf.sprintf "line %d: duplicate host %S" lineno name)
             else current := Some (Host { hp_name = name; hp_substrates = [] })
           | _ -> error := Some (Printf.sprintf "line %d: host takes one name" lineno))
        (* [domain] between stanzas opens a trust domain; inside a
           component it stays the protection-domain directive below *)
        | "domain" :: rest when !current = None ->
          (match rest with
           | [ d ] -> domains := d :: !domains
           | _ -> error := Some (Printf.sprintf "line %d: domain takes one name" lineno))
        | "end" :: rest ->
          (match rest with
           | [] ->
             if !current <> None then close ()
             else (
               match !domains with
               | _ :: tl -> domains := tl
               | [] ->
                 error :=
                   Some
                     (Printf.sprintf
                        "line %d: end with no open component or domain" lineno))
           | _ -> error := Some (Printf.sprintf "line %d: end takes no arguments" lineno))
        | directive :: args ->
          (match !current with
           | None ->
             error :=
               Some (Printf.sprintf "line %d: %S outside a component" lineno directive)
           | Some (Host hp) ->
             (match (directive, args) with
              | "substrates", (_ :: _ as subs) ->
                hp.hp_substrates <- List.rev_append subs hp.hp_substrates
              | _, _ ->
                error :=
                  Some
                    (Printf.sprintf
                       "line %d: unknown or malformed host directive %S" lineno
                       directive))
           | Some (Comp (cname, _, p)) ->
             (match (directive, args) with
              | "domain", [ d ] -> p.p_domain <- Some d
              | "size", [ n ] ->
                (match int_of_string_opt n with
                 | Some v when v >= 0 -> p.p_size <- v
                 | _ -> error := Some (Printf.sprintf "line %d: bad size %S" lineno n))
              | "substrate", [ s ] -> p.p_substrate <- s
              | "network-facing", [] -> p.p_network <- true
              | "vulnerable", [] -> p.p_vulnerable <- true
              | "no-badge-checks", [] -> p.p_badges <- false
              | "stateful", [] -> p.p_stateful <- true
              | "restart", (policy :: bounds) ->
                (match Manifest.restart_policy_of_string policy with
                 | None ->
                   error :=
                     Some
                       (Printf.sprintf
                          "line %d: bad restart policy %S (never | on-failure | always)"
                          lineno policy)
                 | Some pol ->
                   let base = Manifest.default_restart pol in
                   (match bounds with
                    | [] -> p.p_restart <- Some base
                    | [ mx ] ->
                      (match int_of_string_opt mx with
                       | Some v when v >= 0 ->
                         p.p_restart <- Some { base with Manifest.r_max = v }
                       | _ ->
                         error :=
                           Some (Printf.sprintf "line %d: bad restart max %S" lineno mx))
                    | [ mx; win ] ->
                      (match (int_of_string_opt mx, int_of_string_opt win) with
                       | Some v, Some w when v >= 0 && w > 0 ->
                         p.p_restart <-
                           Some { base with Manifest.r_max = v; r_window = w }
                       | _ ->
                         error :=
                           Some
                             (Printf.sprintf "line %d: bad restart bounds %S %S" lineno
                                mx win))
                    | _ ->
                      error :=
                        Some
                          (Printf.sprintf
                             "line %d: restart takes policy [max [window]]" lineno)))
              | "provides", (_ :: _ as services) ->
                p.p_provides <- List.rev_append services p.p_provides
              | "place", (_ :: _ as selectors) ->
                p.p_placement <- List.rev_append selectors p.p_placement
              | "connects", [ w ] ->
                (match parse_connection ~vetted:false ~lineno w with
                 | Ok c when c.Manifest.target = cname ->
                   error :=
                     Some
                       (Printf.sprintf "line %d: component %S connects to itself"
                          lineno cname)
                 | Ok c -> p.p_connects <- c :: p.p_connects
                 | Error e -> error := Some e)
              | "connects-vetted", [ w ] ->
                (match parse_connection ~vetted:true ~lineno w with
                 | Ok c when c.Manifest.target = cname ->
                   error :=
                     Some
                       (Printf.sprintf "line %d: component %S connects to itself"
                          lineno cname)
                 | Ok c -> p.p_connects <- c :: p.p_connects
                 | Error e -> error := Some e)
              | _, _ ->
                error :=
                  Some
                    (Printf.sprintf "line %d: unknown or malformed directive %S" lineno
                       directive)))
      end)
    lines;
  match !error with
  | Some e -> Error e
  | None ->
    close ();
    Ok (List.rev !manifests, List.rev !hosts)

let parse_spanned text = Result.map fst (parse_fleet_spanned text)

let parse text =
  Result.map (List.map (fun s -> s.sp_manifest)) (parse_spanned text)

let parse_fleet text =
  Result.map
    (fun (spans, hosts) -> (List.map (fun s -> s.sp_manifest) spans, hosts))
    (parse_fleet_spanned text)

let load_fleet_spanned path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_fleet_spanned text
  | exception Sys_error e -> Error e

let load path =
  Result.map
    (fun (spans, _) -> List.map (fun s -> s.sp_manifest) spans)
    (load_fleet_spanned path)

let to_text manifests =
  let buf = Buffer.create 512 in
  (* trust-domain tree emission: between components, pop to the common
     prefix ([end] lines, the first also closing the open component) and
     push the remainder ([domain] lines). Files with no trust domains
     print byte-identically to the flat format. *)
  let open_path = ref [] in
  let pad depth = String.make (2 * depth) ' ' in
  let move_to path ~stanza_open =
    let rec common p q =
      match (p, q) with
      | a :: ps, b :: qs when a = b -> a :: common ps qs
      | _ -> []
    in
    let keep = common !open_path path in
    let pops = List.length !open_path - List.length keep in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    let pushes = drop (List.length keep) path in
    if stanza_open && (pops > 0 || pushes <> []) then
      (* close the open component so the next [domain]/[end] line is not
         read as one of its directives *)
      Buffer.add_string buf (pad (List.length !open_path) ^ "end\n");
    for i = 1 to pops do
      Buffer.add_string buf (pad (List.length !open_path - i) ^ "end\n")
    done;
    List.iteri
      (fun i d ->
        Buffer.add_string buf
          (Printf.sprintf "%sdomain %s\n" (pad (List.length keep + i)) d))
      pushes;
    if pops > 0 || pushes <> [] then Buffer.add_char buf '\n';
    open_path := path
  in
  List.iteri
    (fun i m ->
      move_to m.Manifest.trust_domain ~stanza_open:(i > 0);
      let ind = pad (List.length !open_path) in
      let dir = ind ^ "  " in
      Buffer.add_string buf (Printf.sprintf "%scomponent %s\n" ind m.Manifest.name);
      if m.Manifest.domain <> m.Manifest.name then
        Buffer.add_string buf (Printf.sprintf "%sdomain %s\n" dir m.Manifest.domain);
      Buffer.add_string buf (Printf.sprintf "%ssize %d\n" dir m.Manifest.size_loc);
      Buffer.add_string buf (Printf.sprintf "%ssubstrate %s\n" dir m.Manifest.substrate);
      if m.Manifest.network_facing then Buffer.add_string buf (dir ^ "network-facing\n");
      if m.Manifest.vulnerable then Buffer.add_string buf (dir ^ "vulnerable\n");
      if not m.Manifest.discriminates_clients then
        Buffer.add_string buf (dir ^ "no-badge-checks\n");
      if m.Manifest.stateful then Buffer.add_string buf (dir ^ "stateful\n");
      (match m.Manifest.restart with
       | None -> ()
       | Some r ->
         Buffer.add_string buf
           (Printf.sprintf "%srestart %s %d %d\n" dir
              (Manifest.restart_policy_to_string r.Manifest.r_policy)
              r.Manifest.r_max r.Manifest.r_window));
      if m.Manifest.provides <> [] then
        Buffer.add_string buf
          (Printf.sprintf "%sprovides %s\n" dir (String.concat " " m.Manifest.provides));
      if m.Manifest.placement <> [] then
        Buffer.add_string buf
          (Printf.sprintf "%splace %s\n" dir (String.concat " " m.Manifest.placement));
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s.%s\n" dir
               (if c.Manifest.vetted then "connects-vetted" else "connects")
               c.Manifest.target c.Manifest.service))
        m.Manifest.connects_to;
      Buffer.add_char buf '\n')
    manifests;
  (if manifests <> [] && !open_path <> [] then begin
     Buffer.add_string buf (pad (List.length !open_path) ^ "end\n");
     let d = List.length !open_path in
     for i = 1 to d do Buffer.add_string buf (pad (d - i) ^ "end\n") done
   end);
  Buffer.contents buf

let fleet_to_text (manifests, hosts) =
  let buf = Buffer.create 512 in
  List.iter
    (fun h ->
      Buffer.add_string buf (Printf.sprintf "host %s\n" h.Manifest.h_name);
      if h.Manifest.h_substrates <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  substrates %s\n" (String.concat " " h.Manifest.h_substrates));
      Buffer.add_char buf '\n')
    hosts;
  Buffer.add_string buf (to_text manifests);
  Buffer.contents buf
