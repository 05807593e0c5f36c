(* Static blast-radius analysis: a per-root fixpoint over propagation
   edges derived from the manifest. See contain.mli for the model and
   docs/CONTAIN.md for the edge table (diffed against [edge_kinds] by
   the @lintdocs gate). Everything here is pure, total and
   deterministic: lists are sorted, hash tables are never iterated
   directly into results. *)

type impact = Degraded | Restarted | Failed

let rank = function Degraded -> 1 | Restarted -> 2 | Failed -> 3

let impact_to_string = function
  | Degraded -> "degraded"
  | Restarted -> "restarted"
  | Failed -> "failed"

type config = { supervised : bool; spof_fraction : float }

let default_config = { supervised = true; spof_fraction = 0.5 }

(* --- substrate taxonomy ----------------------------------------------------
   Shared with the linter (Lint_rules re-exports these).
   name, sealed identity (can attest / hold sealed secrets), notional
   TCB loc. *)

let known_substrates =
  [ ("microkernel", false, 12_000);
    ("monolithic-os", false, 30_000);
    ("sgx", true, 25_000);
    ("trustzone", true, 19_000);
    ("sep", true, 13_000);
    ("flicker", true, 8_000);
    ("m3-noc", true, 8_000);
    ("cheri", false, 5_500) ]

let substrate_known s = List.exists (fun (n, _, _) -> n = s) known_substrates

(* substrates whose components die when the host side does: the enclave
   host process (sgx), an OS-scheduled task (microkernel,
   monolithic-os), or an in-address-space compartment (cheri). The
   dedicated-hardware substrates (sep, trustzone, flicker, m3-noc) run
   to completion per session and are excluded. *)
let crashable_substrates = [ "sgx"; "microkernel"; "monolithic-os"; "cheri" ]

let substrate_crashable s = List.mem s crashable_substrates

let substrate_sealed_identity s =
  List.exists (fun (n, sealed, _) -> n = s && sealed) known_substrates

let default_tcb_of_substrate s =
  match List.find_opt (fun (n, _, _) -> n = s) known_substrates with
  | Some (_, _, loc) -> loc
  | None -> 12_000

(* substrates that serve one session at a time (flicker's DRTM): a
   crashed cohabitant stalls the slice for everyone on it *)
let exclusive_substrates = [ "flicker" ]

(* --- fleet placement --------------------------------------------------
   Placement-selector semantics live here with the rest of the
   substrate taxonomy; Manifest.placement_selector_kinds carries the
   user-facing grammar table. *)

let placement_classes =
  [ ("tee", substrate_sealed_identity);
    ("commodity", fun s -> substrate_known s && not (substrate_sealed_identity s)) ]

let cut_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

let placement_selector_invalid sel =
  match cut_prefix ~prefix:"host:" sel with
  | Some _ -> None
  | None ->
    (match cut_prefix ~prefix:"class:" sel with
     | Some c ->
       if List.mem_assoc c placement_classes then None
       else
         Some
           (Printf.sprintf "unknown substrate class %S (tee | commodity)" c)
     | None ->
       if sel = "host:" || sel = "class:" then
         Some (Printf.sprintf "selector %S names nothing" sel)
       else if substrate_known sel then None
       else Some (Printf.sprintf "unknown substrate %S" sel))

let host_matches_selector (h : Manifest.host) sel =
  match cut_prefix ~prefix:"host:" sel with
  | Some name -> h.Manifest.h_name = name
  | None ->
    (match cut_prefix ~prefix:"class:" sel with
     | Some c ->
       (match List.assoc_opt c placement_classes with
        | Some pred -> List.exists pred h.Manifest.h_substrates
        | None -> false)
     | None -> List.mem sel h.Manifest.h_substrates)

let host_can_host (h : Manifest.host) (m : Manifest.t) =
  List.mem m.Manifest.substrate h.Manifest.h_substrates
  && (m.Manifest.placement = []
      || List.exists (host_matches_selector h) m.Manifest.placement)

(* --- propagation edges ------------------------------------------------------ *)

type kind =
  | Channel_bounded
  | Channel_blocked
  | Domain_cofate
  | Substrate_exclusive
  | State_loss
  | Restart_storm

let kind_to_string = function
  | Channel_bounded -> "channel-bounded"
  | Channel_blocked -> "channel-blocked"
  | Domain_cofate -> "domain-cofate"
  | Substrate_exclusive -> "substrate-exclusive"
  | State_loss -> "state-loss"
  | Restart_storm -> "restart-storm"

let edge_kinds =
  [ ("channel-bounded",
     "dst declares a channel (vetted or not) to src, calls supervised: \
      any impact degrades dst");
    ("channel-blocked",
     "same channel, unsupervised calls: failed src fails the blocked \
      dst, anything else degrades it");
    ("domain-cofate",
     "src and dst share a protection domain: src down takes the domain \
      with it, dst suffers its own crash impact");
    ("substrate-exclusive",
     "src and dst cohabit an exclusive-session substrate (flicker): \
      src down stalls the slice, dst degrades");
    ("state-loss",
     "dst depends unvetted on stateful src that never effectively \
      restarts, on a substrate that neither seals identity nor \
      survives crashes: the state is destroyed and dst stays degraded");
    ("restart-storm",
     "src and dst on a channel cycle inside one domain, both \
      auto-restarting: mutual respawns exhaust the budgets, both fail") ]

type edge = { p_src : string; p_dst : string; p_kind : kind }

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

let crash_impact m =
  match m.Manifest.restart with
  | Some r
    when (r.Manifest.r_policy = Manifest.On_failure
          || r.Manifest.r_policy = Manifest.Always)
         && r.Manifest.r_max >= 1 -> Restarted
  | _ -> Failed

let auto_restarts m = crash_impact m = Restarted

(* ordered pairs of a sorted member list *)
let ordered_pairs kind members =
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y -> if x = y then None else Some { p_src = x; p_dst = y; p_kind = kind })
        members)
    members

(* the channel subgraph among [members], as a successor function on the
   *call* direction (u -> v when u connects to v) *)
let call_succ index members =
  let inside = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace inside n ()) members;
  fun u ->
    match Hashtbl.find_opt index u with
    | None -> []
    | Some m ->
      List.sort_uniq String.compare
        (List.filter_map
           (fun c ->
             let t = c.Manifest.target in
             if t <> u && Hashtbl.mem inside t then Some t else None)
           m.Manifest.connects_to)

let reachable succ from target =
  let seen = Hashtbl.create 8 in
  let rec go u =
    if Hashtbl.mem seen u then false
    else begin
      Hashtbl.replace seen u ();
      u = target || List.exists go (succ u)
    end
  in
  List.exists go (succ from)

(* per-domain restart-storm groups: channel SCCs of size >= 2 among the
   auto-restarting members of one protection domain. Domains are small,
   so pairwise reachability is fine. *)
let storm_groups index domain_members =
  let members =
    List.filter
      (fun n ->
        match Hashtbl.find_opt index n with
        | Some m -> auto_restarts m
        | None -> false)
      domain_members
  in
  if List.length members < 2 then []
  else begin
    let succ = call_succ index members in
    let in_scc = Hashtbl.create 8 in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            if u < v && reachable succ u v && reachable succ v u then begin
              Hashtbl.replace in_scc u ();
              Hashtbl.replace in_scc v ()
            end)
          members)
      members;
    (* partition the in-scc members into their components *)
    let scc_members =
      List.filter (fun n -> Hashtbl.mem in_scc n) members
    in
    let rec groups = function
      | [] -> []
      | u :: rest ->
        let mine, others =
          List.partition
            (fun v -> reachable succ u v && reachable succ v u)
            rest
        in
        (u :: mine) :: groups others
    in
    List.filter (fun g -> List.length g >= 2) (groups scc_members)
  end

let prop_edges cfg manifests =
  let manifests = dedupe manifests in
  let index = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace index m.Manifest.name m) manifests;
  let channel_kind = if cfg.supervised then Channel_bounded else Channel_blocked in
  let channel =
    List.concat_map
      (fun m ->
        let caller = m.Manifest.name in
        List.concat_map
          (fun c ->
            let t = c.Manifest.target in
            if t = caller || not (Hashtbl.mem index t) then []
            else begin
              let chan = { p_src = t; p_dst = caller; p_kind = channel_kind } in
              let state =
                match Hashtbl.find_opt index t with
                | Some tm
                  when (not c.Manifest.vetted)
                       && tm.Manifest.stateful
                       && substrate_crashable tm.Manifest.substrate
                       && (not (substrate_sealed_identity tm.Manifest.substrate))
                       && crash_impact tm = Failed ->
                  [ { p_src = t; p_dst = caller; p_kind = State_loss } ]
                | _ -> []
              in
              chan :: state
            end)
          m.Manifest.connects_to)
      manifests
  in
  let by_group key_of kind =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun m ->
        match key_of m with
        | None -> ()
        | Some k ->
          let old = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
          Hashtbl.replace tbl k (m.Manifest.name :: old))
      manifests;
    Hashtbl.fold
      (fun _ members acc ->
        if List.length members >= 2 then
          ordered_pairs kind (List.sort String.compare members) @ acc
        else acc)
      tbl []
  in
  let cofate = by_group (fun m -> Some m.Manifest.domain) Domain_cofate in
  let exclusive =
    by_group
      (fun m ->
        if List.mem m.Manifest.substrate exclusive_substrates then
          Some m.Manifest.substrate
        else None)
      Substrate_exclusive
  in
  let storms =
    let domains = Hashtbl.create 16 in
    List.iter
      (fun m ->
        let d = m.Manifest.domain in
        let old = Option.value ~default:[] (Hashtbl.find_opt domains d) in
        Hashtbl.replace domains d (m.Manifest.name :: old))
      manifests;
    Hashtbl.fold
      (fun _ members acc ->
        List.concat_map (ordered_pairs Restart_storm)
          (storm_groups index (List.sort String.compare members))
        @ acc)
      domains []
  in
  List.sort_uniq Stdlib.compare (channel @ cofate @ exclusive @ storms)

(* --- the per-root solver ---------------------------------------------------- *)

(* transfer k i self_dst: the impact edge kind [k] imposes on its dst
   when its src suffers [i], given the dst's own crash impact (the
   cofate parameter). Monotone in [i]. *)
let transfer k i self_dst =
  match k with
  | Channel_bounded -> Some Degraded
  | Channel_blocked -> Some (if i = Failed then Failed else Degraded)
  | Domain_cofate -> if rank i >= rank Restarted then Some self_dst else None
  | Substrate_exclusive -> if rank i >= rank Restarted then Some Degraded else None
  | State_loss -> if rank i >= rank Restarted then Some Degraded else None
  | Restart_storm -> if rank i >= rank Restarted then Some Failed else None

(* The fleet is interned into dense integer ids once per graph: the
   per-root fixpoint then runs over int arrays instead of string
   hashtables, which is what keeps a 1000-component batch analysis
   inside its bench budget (bench/contain_bench.ml). Successor arrays
   preserve the sorted (dst, kind) order of the edge list, so witness
   BFS discovery — and therefore every rendered report — is unchanged. *)
type graph = {
  g_id : (string, int) Hashtbl.t;
  g_name : string array;
  g_succ : (int * kind) array array;  (* edge-list order per source *)
  g_self : impact array;              (* crash_impact *)
  g_domain : string array;
  g_substrate : string array;
  g_scratch : int array;              (* per-root impact ranks; 0 = untouched *)
  g_queue : int Queue.t;
}

let graph _cfg manifests edges =
  let manifests = dedupe manifests in
  let n = List.length manifests in
  let g_id = Hashtbl.create ((2 * n) + 1) in
  let g_name = Array.make n "" in
  let g_self = Array.make n Failed in
  let g_domain = Array.make n "" in
  let g_substrate = Array.make n "" in
  List.iteri
    (fun i m ->
      Hashtbl.replace g_id m.Manifest.name i;
      g_name.(i) <- m.Manifest.name;
      g_self.(i) <- crash_impact m;
      g_domain.(i) <- m.Manifest.domain;
      g_substrate.(i) <- m.Manifest.substrate)
    manifests;
  let succs = Array.make (max n 1) [] in
  List.iter
    (fun e ->
      match (Hashtbl.find_opt g_id e.p_src, Hashtbl.find_opt g_id e.p_dst) with
      | Some s, Some d -> succs.(s) <- (d, e.p_kind) :: succs.(s)
      | _ -> () (* prop_edges never emits dangling endpoints *))
    (List.rev edges) (* prepend in reverse: edge-list order survives *);
  { g_id; g_name;
    g_succ = Array.map Array.of_list (Array.sub succs 0 n);
    g_self; g_domain; g_substrate;
    g_scratch = Array.make n 0;
    g_queue = Queue.create () }

let impact_of_rank = [| Degraded; Restarted; Failed |]  (* index = rank - 1 *)

type escape = {
  x_victim : string;
  x_impact : impact;
  x_outside : int;
  x_path : string list;
}

type radius = {
  r_root : string;
  r_self : impact;
  r_hit : (string * impact) list;
  r_escape : escape option;
}

(* worst-case impact of a crash of [root] on every component: a
   monotone worklist fixpoint; the lattice has height 3 so the solve is
   linear in the out-degree sum of the hit set. Fills [g_scratch] with
   impact ranks and returns the touched ids (root first, otherwise in
   first-discovery order); the caller resets the scratch afterwards. *)
let solve_impacts g root =
  let imp = g.g_scratch and queue = g.g_queue in
  let touched = ref [ root ] in
  imp.(root) <- rank g.g_self.(root);
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let iu = impact_of_rank.(imp.(u) - 1) in
    Array.iter
      (fun (v, k) ->
        match transfer k iu g.g_self.(v) with
        | None -> ()
        | Some iv ->
          let rv = rank iv in
          if rv > imp.(v) then begin
            if imp.(v) = 0 then touched := v :: !touched;
            imp.(v) <- rv;
            Queue.add v queue
          end)
      g.g_succ.(u)
  done;
  !touched

(* shortest witness path root -> victim over *tight* edges: an edge is
   tight when transferring the src's final impact reproduces the dst's
   final impact exactly. Every impacted node has a tight in-path from
   the root (induction over final-update order), and BFS with
   first-discovery parents over sorted successors is deterministic.
   Reads the final impacts from [g_scratch]. *)
let witness_path g root victim =
  let imp = g.g_scratch in
  let parent = Array.make (Array.length g.g_name) (-1) in
  parent.(root) <- root;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let iu = impact_of_rank.(imp.(u) - 1) in
    Array.iter
      (fun (v, k) ->
        if parent.(v) < 0 && imp.(v) > 0 then
          match transfer k iu g.g_self.(v) with
          | Some t when rank t = imp.(v) ->
            parent.(v) <- u;
            Queue.add v queue
          | _ -> ())
      g.g_succ.(u)
  done;
  if parent.(victim) < 0 then
    [ g.g_name.(root); g.g_name.(victim) ] (* unreachable: defensive *)
  else begin
    let rec build acc v =
      if v = root then g.g_name.(root) :: acc
      else build (g.g_name.(v) :: acc) parent.(v)
    in
    build [] victim
  end

let radius_of g root =
  match Hashtbl.find_opt g.g_id root with
  | None -> { r_root = root; r_self = Failed; r_hit = []; r_escape = None }
  | Some rid ->
    let self = g.g_self.(rid) in
    let imp = g.g_scratch in
    let touched = solve_impacts g rid in
    let hit_ids =
      List.sort
        (fun a b -> String.compare g.g_name.(a) g.g_name.(b))
        touched
    in
    let hit =
      List.map (fun i -> (g.g_name.(i), impact_of_rank.(imp.(i) - 1))) hit_ids
    in
    let dom = g.g_domain.(rid) in
    let outside =
      List.filter (fun i -> i <> rid && g.g_domain.(i) <> dom) hit_ids
    in
    let escape =
      if self = Failed && outside <> [] && substrate_crashable g.g_substrate.(rid)
      then begin
        let worst = List.fold_left (fun acc i -> max acc imp.(i)) 1 outside in
        let victim = List.find (fun i -> imp.(i) = worst) outside in
        Some
          { x_victim = g.g_name.(victim);
            x_impact = impact_of_rank.(imp.(victim) - 1);
            x_outside = List.length outside;
            x_path = witness_path g rid victim }
      end
      else None
    in
    List.iter (fun i -> imp.(i) <- 0) touched;
    { r_root = root; r_self = self; r_hit = hit; r_escape = escape }

type verdict = Contained | Uncontained of string list

type result = { radii : radius list; edges : edge list; verdict : verdict }

let assemble _cfg _manifests edges radii =
  let radii = List.sort (fun a b -> String.compare a.r_root b.r_root) radii in
  let escapes =
    List.filter_map
      (fun r -> if r.r_escape <> None then Some r.r_root else None)
      radii
  in
  { radii;
    edges;
    verdict = (if escapes = [] then Contained else Uncontained escapes) }

let analyze ?(config = default_config) manifests =
  let manifests = dedupe manifests in
  let edges = prop_edges config manifests in
  let g = graph config manifests edges in
  let radii = List.map (fun m -> radius_of g m.Manifest.name) manifests in
  assemble config manifests edges radii

(* --- dynamic soundness -------------------------------------------------------- *)

let audit r ~kills observed =
  let rank_opt = function None -> 0 | Some im -> rank im in
  let allowed c =
    (* a repeated kill can spend the restart budget: give-up is licensed *)
    if List.length (List.filter (String.equal c) kills) > 1 then Some Failed
    else
      List.fold_left
        (fun acc rad ->
          match List.assoc_opt c rad.r_hit with
          | Some im when List.mem rad.r_root kills && rank im > rank_opt acc ->
            Some im
          | _ -> acc)
        None r.radii
  in
  List.filter_map
    (fun (c, im) ->
      let a = allowed c in
      if rank im > rank_opt a then Some (c, im, a) else None)
    observed

(* --- incremental support ---------------------------------------------------- *)

let dirty_roots ~old_edges ~new_edges ~touched =
  (* a root's radius depends exactly on what it reaches, so a root is
     dirty iff it reaches a touched component in the old or the new
     propagation graph: backward closure over reversed edges *)
  let pred = Hashtbl.create 16 in
  let add_rev e =
    let old = Option.value ~default:[] (Hashtbl.find_opt pred e.p_dst) in
    if not (List.mem e.p_src old) then Hashtbl.replace pred e.p_dst (e.p_src :: old)
  in
  List.iter add_rev old_edges;
  List.iter add_rev new_edges;
  let seed = Hashtbl.create 16 in
  let note n = Hashtbl.replace seed n () in
  List.iter note touched;
  (* endpoints of edges present in only one of the two lists; both are
     sorted, so a linear merge finds the symmetric difference *)
  let rec diff olds news =
    match (olds, news) with
    | [], [] -> ()
    | o :: os, [] -> note o.p_src; note o.p_dst; diff os []
    | [], n :: ns -> note n.p_src; note n.p_dst; diff [] ns
    | o :: os, n :: ns ->
      let c = Stdlib.compare o n in
      if c = 0 then diff os ns
      else if c < 0 then begin note o.p_src; note o.p_dst; diff os news end
      else begin note n.p_src; note n.p_dst; diff olds ns end
  in
  diff old_edges new_edges;
  let dirty = Hashtbl.create 16 in
  let rec up n =
    if not (Hashtbl.mem dirty n) then begin
      Hashtbl.replace dirty n ();
      List.iter up (Option.value ~default:[] (Hashtbl.find_opt pred n))
    end
  in
  Hashtbl.iter (fun n () -> up n) seed;
  Hashtbl.fold (fun n () acc -> n :: acc) dirty []
  |> List.sort String.compare

(* --- reports ---------------------------------------------------------------- *)

let path_str p = String.concat " -> " p

let render_text ~file r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s: %d components, %d propagation edges\n" file (List.length r.radii)
    (List.length r.edges);
  add "blast radii (crash of -> victims):\n";
  List.iter
    (fun rad ->
      let victims = List.filter (fun (n, _) -> n <> rad.r_root) rad.r_hit in
      add "  %-16s [%s] %s\n" rad.r_root
        (impact_to_string rad.r_self)
        (match victims with
         | [] -> "no victims"
         | vs ->
           String.concat ", "
             (List.map (fun (n, i) -> n ^ " " ^ impact_to_string i) vs)))
    r.radii;
  (match r.verdict with
   | Contained -> add "verdict: contained (no unrecoverable crash escapes its domain)\n"
   | Uncontained roots ->
     add "verdict: UNCONTAINED (%d)\n" (List.length roots);
     List.iter
       (fun root ->
         match List.find_opt (fun rad -> rad.r_root = root) r.radii with
         | Some { r_escape = Some x; _ } ->
           add "  %s never heals and hits %d component(s) outside its domain, worst %s (%s): %s\n"
             root x.x_outside x.x_victim (impact_to_string x.x_impact)
             (path_str x.x_path)
         | _ -> ())
       roots);
  Buffer.contents buf

let render_json ~file r =
  let module Json = Lt_obs.Json in
  let impact i = Json.Str (impact_to_string i) in
  let radius rad =
    let escape =
      match rad.r_escape with
      | None -> []
      | Some x ->
        [ ( "escape",
            Json.Obj
              [ ("victim", Json.Str x.x_victim); ("impact", impact x.x_impact);
                ("outside", Json.Int x.x_outside); ("path", Json.strs x.x_path) ] ) ]
    in
    Json.Obj
      ([ ("root", Json.Str rad.r_root); ("self", impact rad.r_self);
         ( "victims",
           Json.List
             (List.filter_map
                (fun (n, i) ->
                  if n = rad.r_root then None
                  else Some (Json.Obj [ ("component", Json.Str n); ("impact", impact i) ]))
                rad.r_hit) ) ]
      @ escape)
  in
  Json.to_string
    (Json.Obj
       [ ("file", Json.Str file);
         ( "verdict",
           Json.Str
             (match r.verdict with
              | Contained -> "contained"
              | Uncontained _ -> "uncontained") );
         ("radii", Json.List (List.map radius r.radii));
         ( "edges",
           Json.List
             (List.map
                (fun e ->
                  Json.Obj
                    [ ("src", Json.Str e.p_src); ("dst", Json.Str e.p_dst);
                      ("kind", Json.Str (kind_to_string e.p_kind)) ])
                r.edges) ) ])

let to_dot manifests r =
  let manifests = dedupe manifests in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escapes =
    match r.verdict with Contained -> [] | Uncontained roots -> roots
  in
  add "digraph contain {\n  rankdir=LR;\n  node [shape=box, style=filled];\n";
  List.iter
    (fun m ->
      let n = m.Manifest.name in
      let colour =
        match crash_impact m with
        | Failed -> "#f4b6b6"
        | Restarted -> "#f8d7a0"
        | Degraded -> "#e6e6e6"
      in
      let extra = if List.mem n escapes then ", peripheries=2" else "" in
      add "  \"%s\" [fillcolor=\"%s\", label=\"%s\\n%s\"%s];\n" n colour n
        (impact_to_string (crash_impact m))
        extra)
    manifests;
  List.iter
    (fun e ->
      let style =
        match e.p_kind with
        | Channel_bounded | Channel_blocked -> ""
        | Domain_cofate | Substrate_exclusive -> ", style=dashed"
        | State_loss -> ", style=dotted"
        | Restart_storm -> ", color=red"
      in
      add "  \"%s\" -> \"%s\" [label=\"%s\"%s];\n" e.p_src e.p_dst
        (kind_to_string e.p_kind)
        style)
    r.edges;
  add "}\n";
  Buffer.contents buf

(* --- per-trust-domain verdicts ----------------------------------------------

   A blast radius is attributed to the tenant of its root; the
   cross-tenant filter lists (root, victim) pairs whose trust-domain
   paths are disjoint — the one thing a multi-tenant fleet must keep
   empty (shared root-domain infrastructure is never disjoint from a
   tenant, so fate-sharing through it is reported, not hidden). *)

let trust_paths manifests =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem tbl m.Manifest.name) then
        Hashtbl.add tbl m.Manifest.name m.Manifest.trust_domain)
    manifests;
  fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)

let cross_tenant_radius manifests r =
  let path = trust_paths manifests in
  List.concat_map
    (fun rad ->
      List.filter_map
        (fun (victim, impact) ->
          if
            victim <> rad.r_root
            && Manifest.trust_domains_disjoint (path rad.r_root) (path victim)
          then Some (rad.r_root, victim, impact)
          else None)
        rad.r_hit)
    r.radii

let tenant_verdicts manifests r =
  let path = trust_paths manifests in
  let tenant n = match path n with [] -> None | t :: _ -> Some t in
  let ts =
    List.filter_map Manifest.tenant_of manifests
    |> List.sort_uniq String.compare
  in
  List.map
    (fun t ->
      let escapes =
        List.filter_map
          (fun rad ->
            if tenant rad.r_root = Some t && rad.r_escape <> None then
              Some rad.r_root
            else None)
          r.radii
      in
      (t, if escapes = [] then Contained else Uncontained escapes))
    ts

let render_domain_verdicts manifests r =
  match
    List.filter_map Manifest.tenant_of manifests
    |> List.sort_uniq String.compare
  with
  | [] -> "" (* flat fleet: render nothing, outputs stay byte-identical *)
  | _ :: _ ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "per-domain verdicts:\n";
    List.iter
      (fun (t, v) ->
        Buffer.add_string buf
          (match v with
           | Contained -> Printf.sprintf "  tenant %s: contained\n" t
           | Uncontained roots ->
             Printf.sprintf "  tenant %s: UNCONTAINED (%s)\n" t
               (String.concat ", " roots)))
      (tenant_verdicts manifests r);
    (match cross_tenant_radius manifests r with
     | [] -> Buffer.add_string buf "  cross-tenant radius: none\n"
     | xs ->
       List.iter
         (fun (root, victim, impact) ->
           Buffer.add_string buf
             (Printf.sprintf "  CROSS-TENANT radius: %s -> %s (%s)\n" root
                victim (impact_to_string impact)))
         xs);
    Buffer.contents buf
