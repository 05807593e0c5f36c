module K = Lt_kernel.Kernel

type config = { secret_substrates : string list }

let default_config = { secret_substrates = [ "sep"; "sgx"; "trustzone"; "flicker" ] }

type edge = { e_src : string; e_dst : string; e_service : string; e_reply : bool }

type leak = { l_secret : string; l_sink : string; l_path : string list }

type taint_hit = {
  t_source : string;
  t_sink : string;
  t_path : string list;
  t_direct : bool;
}

type verdict = Secure | Leak of leak list

type result = {
  labels : (string * Flow_lattice.t) list;
  leaks : leak list;
  taint_hits : taint_hit list;
  verdict : verdict;
  edges : edge list;
}

(* --- the flow graph --------------------------------------------------------- *)

(* first manifest wins on duplicate names, matching Lint_rules.make_ctx *)
let dedupe manifests =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m.Manifest.name then false
      else begin
        Hashtbl.replace seen m.Manifest.name ();
        true
      end)
    manifests

let flow_edges manifests =
  let declared = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace declared m.Manifest.name ()) manifests;
  List.concat_map
    (fun m ->
      List.concat_map
        (fun c ->
          let target = c.Manifest.target in
          if c.Manifest.vetted || target = m.Manifest.name
             || not (Hashtbl.mem declared target)
          then []
          else
            [ { e_src = m.Manifest.name; e_dst = target;
                e_service = c.Manifest.service; e_reply = false };
              { e_src = target; e_dst = m.Manifest.name;
                e_service = c.Manifest.service; e_reply = true } ])
        m.Manifest.connects_to)
    manifests
  |> List.sort_uniq Stdlib.compare

(* --- the worklist fixpoint solver ------------------------------------------- *)

(* [solve nodes adj base] propagates labels to a fixpoint: out(v) =
   base(v) ⊔ ⨆ out(u) over edges u -> v. Each node re-enters the
   worklist only when its label strictly rises, and the lattice height
   is bounded by the secret-holder count, so the solver is linear in
   edges times height — no path enumeration. *)
let solve nodes adj base =
  let label = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace label n (base n)) nodes;
  let get n = Option.value ~default:Flow_lattice.public (Hashtbl.find_opt label n) in
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let push n =
    if not (Hashtbl.mem queued n) then begin
      Hashtbl.replace queued n ();
      Queue.add n queue
    end
  in
  List.iter
    (fun n -> if not (Flow_lattice.equal (get n) Flow_lattice.public) then push n)
    nodes;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Hashtbl.remove queued u;
    let lu = get u in
    List.iter
      (fun v ->
        let lv = get v in
        let j = Flow_lattice.join lv lu in
        if not (Flow_lattice.equal j lv) then begin
          Hashtbl.replace label v j;
          push v
        end)
      (adj u)
  done;
  get

(* deterministic adjacency: sorted successor lists *)
let adjacency edges =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let old = Option.value ~default:[] (Hashtbl.find_opt tbl e.e_src) in
      if not (List.mem e.e_dst old) then Hashtbl.replace tbl e.e_src (e.e_dst :: old))
    edges;
  fun n ->
    List.sort String.compare (Option.value ~default:[] (Hashtbl.find_opt tbl n))

(* shortest witness paths: breadth-first with first-discovery parents
   over the sorted adjacency, so reports are deterministic *)
let bfs_paths adj start =
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent start start;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not (Hashtbl.mem parent v) then begin
          Hashtbl.replace parent v u;
          Queue.add v queue
        end)
      (adj u)
  done;
  fun dst ->
    if not (Hashtbl.mem parent dst) then None
    else begin
      let rec walk acc n =
        if n = start then start :: acc else walk (n :: acc) (Hashtbl.find parent n)
      in
      Some (walk [] dst)
    end

(* --- the analysis ------------------------------------------------------------ *)

let tainted_base m =
  m.Manifest.network_facing || m.Manifest.vulnerable

let analyze ?(config = default_config) manifests =
  let manifests = dedupe manifests in
  let nodes = List.map (fun m -> m.Manifest.name) manifests in
  let find n = List.find_opt (fun m -> m.Manifest.name = n) manifests in
  let holds_secret m = List.mem m.Manifest.substrate config.secret_substrates in
  let edges = flow_edges manifests in
  let request_edges = List.filter (fun e -> not e.e_reply) edges in
  (* taint rides requests only: it models who can invoke whom *)
  let taint_adj = adjacency request_edges in
  let taint =
    solve nodes taint_adj (fun n ->
        match find n with
        | Some m when tainted_base m -> Flow_lattice.tainted
        | _ -> Flow_lattice.public)
  in
  (* secrecy rides requests and replies: replies are how secrets escape *)
  let secret_adj = adjacency edges in
  let secrecy =
    solve nodes secret_adj (fun n ->
        match find n with
        | Some m when holds_secret m -> Flow_lattice.secret n
        | _ -> Flow_lattice.public)
  in
  let labels =
    List.map (fun n -> (n, Flow_lattice.join (taint n) (secrecy n)))
      (List.sort String.compare nodes)
  in
  (* leaks: secret material at an attacker-observable component *)
  let holders =
    List.filter holds_secret manifests
    |> List.map (fun m -> m.Manifest.name)
    |> List.sort String.compare
  in
  let leaks =
    List.concat_map
      (fun h ->
        let path_to = bfs_paths secret_adj h in
        List.filter_map
          (fun m ->
            let n = m.Manifest.name in
            if n = h || not (tainted_base m) then None
            else
              match path_to n with
              | Some path -> Some { l_secret = h; l_sink = n; l_path = path }
              | None -> None)
          manifests)
      holders
    |> List.sort Stdlib.compare
  in
  (* taint hits: attacker influence arriving at a secret holder *)
  let sources =
    List.filter tainted_base manifests
    |> List.map (fun m -> m.Manifest.name)
    |> List.sort String.compare
  in
  let taint_hits =
    List.concat_map
      (fun src ->
        let path_to = bfs_paths taint_adj src in
        List.filter_map
          (fun h ->
            if h = src then None
            else
              match path_to h with
              | Some path ->
                Some
                  { t_source = src; t_sink = h; t_path = path;
                    t_direct = List.length path = 2 }
              | None -> None)
          holders)
      sources
    |> List.sort Stdlib.compare
  in
  let verdict = if leaks = [] then Secure else Leak leaks in
  { labels; leaks; taint_hits; verdict; edges }

let has_leaks r = r.leaks <> []

(* --- deployment -------------------------------------------------------------- *)

type deployment = {
  d_kernel : K.t;
  d_tasks : (string * K.task) list;
  d_endpoints : (string * K.endpoint) list;
  d_badges : (int * string) list;
}

(* the declared channel pairs (caller, target), vetted or not: vetting
   changes labels, not the existence of the channel *)
let declared_pairs manifests =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun c ->
          if c.Manifest.target = m.Manifest.name then None
          else Some (m.Manifest.name, c.Manifest.target))
        m.Manifest.connects_to)
    manifests
  |> List.sort_uniq Stdlib.compare

let provision ?dram_pages manifests =
  let names = List.map (fun m -> m.Manifest.name) manifests in
  let dup =
    List.filter (fun n -> List.length (List.filter (( = ) n) names) > 1) names
  in
  if dup <> [] then
    Error (Printf.sprintf "duplicate component %S" (List.hd dup))
  else begin
    let missing =
      List.concat_map
        (fun m ->
          List.filter_map
            (fun c ->
              if c.Manifest.target = m.Manifest.name then
                Some (Printf.sprintf "%s connects to itself" m.Manifest.name)
              else if List.mem c.Manifest.target names then None
              else
                Some
                  (Printf.sprintf "%s connects to undeclared %S" m.Manifest.name
                     c.Manifest.target))
            m.Manifest.connects_to)
        manifests
    in
    match missing with
    | e :: _ -> Error e
    | [] ->
      let pages = Option.value ~default:(2 * List.length manifests + 8) dram_pages in
      let machine = Lt_hw.Machine.create ~dram_pages:pages () in
      let k = K.create machine (Lt_kernel.Sched.Round_robin { quantum = 500 }) in
      let oom = ref None in
      let tasks =
        List.map
          (fun m ->
            let name = m.Manifest.name in
            let task = K.create_task k ~name ~partition:name in
            (match K.map_memory k task ~vpage:0 ~pages:1 Lt_hw.Mmu.rw with
             | Ok () -> ()
             | Error K.Out_of_frames ->
               if !oom = None then oom := Some name);
            (name, task))
          manifests
      in
      match !oom with
      | Some name ->
        Error (Printf.sprintf "provisioning %s: out of physical frames" name)
      | None ->
      let endpoints =
        List.map
          (fun m ->
            let name = m.Manifest.name in
            let ep = K.create_endpoint k ~name:(name ^ ".ep") in
            let task = List.assoc name tasks in
            ignore
              (K.grant k task ep ~rights:{ K.send = false; recv = true } ~badge:0);
            (name, ep))
          manifests
      in
      (* the badge is the caller's identity: position in the manifest
         list, so receivers can discriminate clients (§III-D) *)
      let badges =
        List.mapi (fun i m -> (i + 1, m.Manifest.name)) manifests
      in
      let badge_of name =
        fst (List.find (fun (_, n) -> n = name) badges)
      in
      List.iter
        (fun (caller, target) ->
          let task = List.assoc caller tasks in
          let ep = List.assoc target endpoints in
          ignore
            (K.grant k task ep ~rights:{ K.send = true; recv = false }
               ~badge:(badge_of caller)))
        (declared_pairs manifests);
      Ok { d_kernel = k; d_tasks = tasks; d_endpoints = endpoints; d_badges = badges }
  end

(* --- conformance ------------------------------------------------------------- *)

type cap_fact = {
  c_task : string;
  c_endpoint : string;
  c_slot : int;
  c_badge : int;
  c_send : bool;
  c_recv : bool;
}

type over_privilege = { o_task : string; o_endpoint : string; o_reason : string }

type under_provision = {
  u_caller : string;
  u_target : string;
  u_services : string list;
}

type conformance = {
  facts : cap_fact list;
  over : over_privilege list;
  under : under_provision list;
}

let authority k =
  List.concat_map
    (fun task ->
      List.map
        (fun (slot, ep, rights, badge) ->
          { c_task = K.task_name task; c_endpoint = ep; c_slot = slot;
            c_badge = badge; c_send = rights.K.send; c_recv = rights.K.recv })
        (K.caps task))
    (K.tasks k)
  |> List.sort Stdlib.compare

let endpoint_component ep =
  if String.length ep > 3 && String.sub ep (String.length ep - 3) 3 = ".ep" then
    Some (String.sub ep 0 (String.length ep - 3))
  else None

let conformance ?config:_ manifests k =
  let manifests = dedupe manifests in
  let find n = List.find_opt (fun m -> m.Manifest.name = n) manifests in
  let pairs = declared_pairs manifests in
  let declared caller target = List.mem (caller, target) pairs in
  let facts = authority k in
  let over = ref [] in
  let flag o_task o_endpoint o_reason = over := { o_task; o_endpoint; o_reason } :: !over in
  (* 1. every capability must be justified by the manifest graph *)
  List.iter
    (fun f ->
      match endpoint_component f.c_endpoint with
      | None ->
        if find f.c_task <> None then
          flag f.c_task f.c_endpoint
            "capability onto an endpoint outside the manifest graph"
      | Some target ->
        if find target = None then ()
        else if find f.c_task = None then
          flag f.c_task f.c_endpoint
            "capability held by a task no manifest declares"
        else if f.c_task = target then begin
          if f.c_send then
            flag f.c_task f.c_endpoint
              "send capability onto its own endpoint; manifests cannot declare self-channels"
        end
        else begin
          if f.c_recv then
            flag f.c_task f.c_endpoint
              (Printf.sprintf
                 "receive capability on %s's endpoint: it can intercept %s's requests"
                 target target);
          if f.c_send && not (declared f.c_task target) then
            flag f.c_task f.c_endpoint
              (Printf.sprintf
                 "send capability but the manifest declares no channel %s -> %s"
                 f.c_task target)
        end)
    facts;
  (* 2. badge discrimination: a client-discriminating target must see
     each caller under a distinct badge *)
  List.iter
    (fun m ->
      if m.Manifest.discriminates_clients then begin
        let target = m.Manifest.name in
        let senders =
          List.filter
            (fun f ->
              f.c_send && f.c_task <> target
              && endpoint_component f.c_endpoint = Some target
              && find f.c_task <> None)
            facts
        in
        let by_badge = Hashtbl.create 4 in
        List.iter
          (fun f ->
            let others =
              Option.value ~default:[] (Hashtbl.find_opt by_badge f.c_badge)
            in
            if not (List.mem f.c_task others) then
              Hashtbl.replace by_badge f.c_badge (f.c_task :: others))
          senders;
        Hashtbl.iter
          (fun badge tasks ->
            if List.length tasks >= 2 then
              List.iter
                (fun t ->
                  flag t (target ^ ".ep")
                    (Printf.sprintf
                       "badge %d is shared by %s on a client-discriminating target: confused-deputy defence defeated"
                       badge
                       (String.concat ", " (List.sort String.compare tasks))))
                tasks)
          by_badge
      end)
    manifests;
  (* 3. spatial isolation: components may share a physical frame only if
     a channel between them is declared (de-facto sharing is exactly
     where isolation designs rot) *)
  let comp_tasks =
    List.filter (fun t -> find (K.task_name t) <> None) (K.tasks k)
  in
  let rec pairs_of = function
    | [] -> []
    | t :: rest -> List.map (fun u -> (t, u)) rest @ pairs_of rest
  in
  List.iter
    (fun (a, b) ->
      let na = K.task_name a and nb = K.task_name b in
      if na <> nb then begin
        let fa = K.task_frames a and fb = K.task_frames b in
        let shared = List.filter (fun f -> List.mem f fb) fa in
        if shared <> [] && not (declared na nb) && not (declared nb na) then
          flag (min na nb) (max na nb ^ ".ep")
            (Printf.sprintf
               "shares physical frame %d with %s but no channel is declared"
               (List.hd shared) (max na nb))
      end)
    (pairs_of comp_tasks);
  (* 4. under-provision: every declared pair needs a send capability *)
  let under =
    List.filter_map
      (fun (caller, target) ->
        let granted =
          List.exists
            (fun f ->
              f.c_send && f.c_task = caller
              && endpoint_component f.c_endpoint = Some target)
            facts
        in
        if granted then None
        else
          let services =
            match find caller with
            | None -> []
            | Some m ->
              List.filter_map
                (fun c ->
                  if c.Manifest.target = target then Some c.Manifest.service
                  else None)
                m.Manifest.connects_to
              |> List.sort_uniq String.compare
          in
          Some { u_caller = caller; u_target = target; u_services = services })
      (List.filter (fun (_, target) -> find target <> None) pairs)
  in
  { facts;
    over = List.sort_uniq Stdlib.compare !over;
    under = List.sort Stdlib.compare under }

let conforms c = c.over = [] && c.under = []

let conformance_diagnostics c =
  List.map
    (fun o ->
      Diagnostic.v ~rule_id:"L017-undeclared-authority" ~severity:Diagnostic.Error
        ~component:o.o_task ~service:o.o_endpoint ~message:o.o_reason
        ~fix_hint:"revoke the capability, or declare the channel in the manifest" ())
    c.over
  @ List.map
      (fun u ->
        Diagnostic.v ~rule_id:"L018-under-provision" ~severity:Diagnostic.Warning
          ~component:u.u_caller ~service:u.u_target
          ~message:
            (Printf.sprintf
               "declared channel %s -> %s.{%s} has no send capability in the kernel"
               u.u_caller u.u_target (String.concat ", " u.u_services))
          ~fix_hint:"grant the capability at deploy time, or delete the declared channel" ())
      c.under
  |> List.sort Diagnostic.compare

let check_deployment ?config manifests =
  match provision manifests with
  | Error e -> Error ("provision: " ^ e)
  | Ok d ->
    let c = conformance ?config manifests d.d_kernel in
    if not (conforms c) then
      Error
        (Printf.sprintf "deployment does not conform to its manifest: %s"
           (String.concat "; "
              (List.map Diagnostic.subject (conformance_diagnostics c))))
    else begin
      match (analyze ?config manifests).verdict with
      | Secure -> Ok ()
      | Leak leaks ->
        Error
          (Printf.sprintf "manifest is not leak-free: secret of %s reaches %s"
             (List.hd leaks).l_secret (List.hd leaks).l_sink)
    end

(* --- reports ----------------------------------------------------------------- *)

let path_str p = String.concat " -> " p

let render_text ~file ?conformance:conf r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s: %d components, %d flow edges\n" file (List.length r.labels)
    (List.length r.edges);
  add "labels:\n";
  List.iter
    (fun (n, l) -> add "  %-16s %s\n" n (Flow_lattice.to_string l))
    r.labels;
  (match r.taint_hits with
   | [] -> ()
   | hits ->
     add "taint into secret holders:\n";
     List.iter
       (fun h ->
         add "  %s -> %s (%s): %s\n" h.t_source h.t_sink
           (if h.t_direct then "direct" else "transitive")
           (path_str h.t_path))
       hits);
  (match r.verdict with
   | Secure -> add "verdict: secure (no secret reaches an exposed component)\n"
   | Leak leaks ->
     add "verdict: LEAK (%d)\n" (List.length leaks);
     List.iter
       (fun l ->
         add "  secret of %s reaches %s: %s\n" l.l_secret l.l_sink
           (path_str l.l_path))
       leaks);
  (match conf with
   | None -> ()
   | Some c ->
     add "conformance: %d de-facto capabilities\n" (List.length c.facts);
     if conforms c then add "  kernel state matches the manifest\n"
     else begin
       List.iter
         (fun o -> add "  over-privilege %s on %s: %s\n" o.o_task o.o_endpoint o.o_reason)
         c.over;
       List.iter
         (fun u ->
           add "  under-provision %s -> %s.{%s}\n" u.u_caller u.u_target
             (String.concat ", " u.u_services))
         c.under
     end);
  Buffer.contents buf

let render_json ~file ?conformance:conf r =
  let module Json = Lt_obs.Json in
  let obj fields = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) fields) in
  let conformance =
    match conf with
    | None -> []
    | Some c ->
      [ ( "conformance",
          Json.Obj
            [ ("capabilities", Json.Int (List.length c.facts));
              ( "over",
                Json.List
                  (List.map
                     (fun o ->
                       obj
                         [ ("task", o.o_task); ("endpoint", o.o_endpoint);
                           ("reason", o.o_reason) ])
                     c.over) );
              ( "under",
                Json.List
                  (List.map
                     (fun u ->
                       Json.Obj
                         [ ("caller", Json.Str u.u_caller);
                           ("target", Json.Str u.u_target);
                           ("services", Json.strs u.u_services) ])
                     c.under) ) ] ) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("file", Json.Str file);
          ("verdict", Json.Str (match r.verdict with Secure -> "secure" | Leak _ -> "leak"));
          ( "labels",
            Json.List
              (List.map
                 (fun (n, l) ->
                   obj [ ("component", n); ("label", Flow_lattice.to_string l) ])
                 r.labels) );
          ( "taint",
            Json.List
              (List.map
                 (fun h ->
                   Json.Obj
                     [ ("source", Json.Str h.t_source); ("sink", Json.Str h.t_sink);
                       ("direct", Json.Bool h.t_direct); ("path", Json.strs h.t_path) ])
                 r.taint_hits) );
          ( "leaks",
            Json.List
              (List.map
                 (fun l ->
                   Json.Obj
                     [ ("secret", Json.Str l.l_secret); ("sink", Json.Str l.l_sink);
                       ("path", Json.strs l.l_path) ])
                 r.leaks) ) ]
       @ conformance))

let to_dot manifests r =
  let manifests = dedupe manifests in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let label_of n =
    Option.value ~default:Flow_lattice.public (List.assoc_opt n r.labels)
  in
  add "digraph flow {\n  rankdir=LR;\n  node [shape=box, style=filled];\n";
  List.iter
    (fun m ->
      let n = m.Manifest.name in
      let l = label_of n in
      let colour =
        if Flow_lattice.is_secret l then "#f4b6b6"
        else if Flow_lattice.is_tainted l then "#f8d7a0"
        else "#e6e6e6"
      in
      add "  \"%s\" [fillcolor=\"%s\", label=\"%s\\n%s\"];\n" n colour n
        (Flow_lattice.to_string l))
    manifests;
  List.iter
    (fun m ->
      List.iter
        (fun c ->
          if c.Manifest.vetted then
            add "  \"%s\" -> \"%s\" [label=\"%s (vetted)\", style=dashed];\n"
              m.Manifest.name c.Manifest.target c.Manifest.service
          else
            add "  \"%s\" -> \"%s\" [label=\"%s\"];\n" m.Manifest.name
              c.Manifest.target c.Manifest.service)
        m.Manifest.connects_to)
    manifests;
  add "}\n";
  Buffer.contents buf

(* --- per-trust-domain verdicts ----------------------------------------------

   Tenant attribution: a leak belongs to the tenant of the component
   whose secret escapes, a taint hit to the tenant of the tainted
   source. The cross-tenant filters pick out witnesses whose two ends
   sit in *disjoint* trust domains — exactly what a multi-tenant
   deployment must keep empty so one tenant's taint is never pinned on
   another. The root path [] is disjoint from nothing: shared root
   infrastructure may appear in any tenant's evidence. *)

let trust_paths manifests =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem tbl m.Manifest.name) then
        Hashtbl.add tbl m.Manifest.name m.Manifest.trust_domain)
    manifests;
  fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)

let tenants manifests =
  List.filter_map Manifest.tenant_of manifests |> List.sort_uniq String.compare

let tenant_verdicts manifests r =
  let path = trust_paths manifests in
  let tenant n = match path n with [] -> None | t :: _ -> Some t in
  List.map
    (fun t ->
      let leaks = List.filter (fun l -> tenant l.l_secret = Some t) r.leaks in
      (t, if leaks = [] then Secure else Leak leaks))
    (tenants manifests)

let cross_tenant_hits manifests r =
  let path = trust_paths manifests in
  List.filter
    (fun h -> Manifest.trust_domains_disjoint (path h.t_source) (path h.t_sink))
    r.taint_hits

let cross_tenant_leaks manifests r =
  let path = trust_paths manifests in
  List.filter
    (fun l -> Manifest.trust_domains_disjoint (path l.l_secret) (path l.l_sink))
    r.leaks

let render_domain_verdicts manifests r =
  match tenants manifests with
  | [] -> "" (* flat fleet: render nothing, outputs stay byte-identical *)
  | _ :: _ ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "per-domain verdicts:\n";
    List.iter
      (fun (t, v) ->
        Buffer.add_string buf
          (match v with
           | Secure -> Printf.sprintf "  tenant %s: secure\n" t
           | Leak ls ->
             Printf.sprintf "  tenant %s: %d leak(s)\n" t (List.length ls)))
      (tenant_verdicts manifests r);
    let xl = cross_tenant_leaks manifests r in
    let xh = cross_tenant_hits manifests r in
    List.iter
      (fun l ->
        Buffer.add_string buf
          (Printf.sprintf "  CROSS-TENANT leak: %s -> %s via %s\n" l.l_secret
             l.l_sink (String.concat " -> " l.l_path)))
      xl;
    List.iter
      (fun h ->
        Buffer.add_string buf
          (Printf.sprintf "  CROSS-TENANT taint: %s -> %s via %s\n" h.t_source
             h.t_sink (String.concat " -> " h.t_path)))
      xh;
    if xl = [] && xh = [] then
      Buffer.add_string buf "  cross-tenant witnesses: none\n";
    Buffer.contents buf
