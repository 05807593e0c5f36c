module K = Lt_kernel.Kernel

(* The incremental analysis state. The manifest list, ctx, flow result
   and diagnostics are rebuilt functionally on every [apply]; the label
   tables, witness caches and kernel substate are mutated in place —
   states are linear (see the mli).

   Names are unique throughout: [create] dedupes first-wins and
   {!Delta.apply} preserves uniqueness (Add is an upsert). Every
   equivalence claim below is against the batch analysis of this same
   unique list. *)
type t = {
  config : Lint_rules.config;
  fconfig : Flow.config;
  cconfig : Contain.config;
  manifests : Manifest.t list;
  ctx : Lint_rules.ctx;  (* flow_memo and contain_memo pre-seeded *)
  flow : Flow.result;
  contain : Contain.result;
  diags : Diagnostic.t list;
  (* flow caches *)
  taint : (string, Flow_lattice.t) Hashtbl.t;
  secrecy : (string, Flow_lattice.t) Hashtbl.t;
  secret_paths : (string, string -> string list option) Hashtbl.t;
  taint_paths : (string, string -> string list option) Hashtbl.t;
  leaks_by : (string, Flow.leak list) Hashtbl.t;    (* per holder, sorted *)
  hits_by : (string, Flow.taint_hit list) Hashtbl.t;(* per source, sorted *)
  (* lint cache: rule id -> seed name -> its (nonempty) findings *)
  lint_cache : (string, (string, Diagnostic.t list) Hashtbl.t) Hashtbl.t;
  (* contain cache: per-root radius, exactly the dirty-root slice is
     recomputed per delta *)
  radii : (string, Contain.radius) Hashtbl.t;
  (* kernel substate; tasks and endpoints persist across Remove (the
     kernel has no destroy) but a removed component's capabilities are
     all revoked, so dead tasks hold no authority *)
  kernel : K.t;
  tasks : (string, K.task) Hashtbl.t;
  eps : (string, K.endpoint) Hashtbl.t;
  badge : (string, int) Hashtbl.t;
  recv_slot : (string, int) Hashtbl.t;
  send_slot : (string * string, int) Hashtbl.t;
  next_badge : int ref;
}

let manifests t = t.manifests
let diagnostics t = t.diags
let flow_result t = t.flow
let contain_result t = t.contain

(* the manifest fields the containment analysis reads besides the
   channel list (channel/vetting changes surface as propagation-edge
   diffs instead) *)
let contain_inputs m =
  (m.Manifest.restart, m.Manifest.domain, m.Manifest.substrate,
   m.Manifest.stateful)

(* --- small set/graph helpers ------------------------------------------------ *)

let set_of_list xs =
  let h = Hashtbl.create (max 8 (List.length xs)) in
  List.iter (fun x -> Hashtbl.replace h x ()) xs;
  h

(* forward BFS closure of [seeds] under [adj], seeds included *)
let closure adj seeds =
  let seen = Hashtbl.copy seeds in
  let q = Queue.create () in
  Hashtbl.iter (fun n () -> Queue.add n q) seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.replace seen v ();
          Queue.add v q
        end)
      (adj u)
  done;
  seen

let flip e = { e with Flow.e_src = e.Flow.e_dst; e_dst = e.Flow.e_src }

(* --- the restricted fixpoint re-solve --------------------------------------- *)

(* [re_solve tbl ~suspects ~adj ~radj ~base] re-derives the labels of
   the suspect set against the *current* graph. Suspects are first
   reset to their base label — that is what lets labels drop when a
   channel or a taint source goes away — then the standard rising
   worklist runs, seeded by the suspects themselves plus the non-suspect
   frontier feeding into them. Soundness rests on the suspect set being
   closed under forward reachability from the delta's footprint: every
   node whose fixpoint label can differ is a suspect, so non-suspect
   labels are already exact and only need to be read, never touched.
   With every node suspect this is exactly the batch solver. *)
let re_solve tbl ~suspects ~adj ~radj ~base =
  let get n =
    Option.value ~default:Flow_lattice.public (Hashtbl.find_opt tbl n)
  in
  Hashtbl.iter (fun s () -> Hashtbl.replace tbl s (base s)) suspects;
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let push n =
    if not (Hashtbl.mem queued n) then begin
      Hashtbl.replace queued n ();
      Queue.add n queue
    end
  in
  Hashtbl.iter
    (fun s () ->
      if not (Flow_lattice.equal (get s) Flow_lattice.public) then push s;
      List.iter
        (fun u ->
          if
            (not (Hashtbl.mem suspects u))
            && not (Flow_lattice.equal (get u) Flow_lattice.public)
          then push u)
        (radj s))
    suspects;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Hashtbl.remove queued u;
    let lu = get u in
    List.iter
      (fun v ->
        if Hashtbl.mem suspects v then begin
          let lv = get v in
          let j = Flow_lattice.join lv lu in
          if not (Flow_lattice.equal j lv) then begin
            Hashtbl.replace tbl v j;
            push v
          end
        end)
      (adj u)
  done

(* --- witness caches ---------------------------------------------------------- *)

(* per-holder leaks, sorted (the global report is a sort over the
   concatenation, so per-holder order is canonical, not load-bearing) *)
let leaks_for new_manifests h path_to =
  List.filter_map
    (fun m ->
      let n = m.Manifest.name in
      if n = h || not (Flow.tainted_base m) then None
      else
        match path_to n with
        | Some path -> Some { Flow.l_secret = h; l_sink = n; l_path = path }
        | None -> None)
    new_manifests
  |> List.sort Stdlib.compare

let hits_for holders src path_to =
  List.filter_map
    (fun h ->
      if h = src then None
      else
        match path_to h with
        | Some path ->
          Some
            { Flow.t_source = src; t_sink = h; t_path = path;
              t_direct = List.length path = 2 }
        | None -> None)
    holders
  |> List.sort Stdlib.compare

let assemble_flow ~taint ~secrecy ~leaks_by ~hits_by ~edges nodes =
  let get tbl n =
    Option.value ~default:Flow_lattice.public (Hashtbl.find_opt tbl n)
  in
  let labels =
    List.map
      (fun n -> (n, Flow_lattice.join (get taint n) (get secrecy n)))
      (List.sort String.compare nodes)
  in
  let leaks =
    Hashtbl.fold (fun _ ls acc -> List.rev_append ls acc) leaks_by []
    |> List.sort Stdlib.compare
  in
  let taint_hits =
    Hashtbl.fold (fun _ hs acc -> List.rev_append hs acc) hits_by []
    |> List.sort Stdlib.compare
  in
  let verdict = if leaks = [] then Flow.Secure else Flow.Leak leaks in
  { Flow.labels; leaks; taint_hits; verdict; edges }

let diags_of_cache lint_cache =
  Hashtbl.fold
    (fun _ tbl acc ->
      Hashtbl.fold (fun _ ds acc -> List.rev_append ds acc) tbl acc)
    lint_cache []
  |> List.sort_uniq Diagnostic.compare

(* --- create ------------------------------------------------------------------ *)

let create ?(config = Lint_rules.default_config) ?dram_pages manifests =
  let manifests = Flow.dedupe manifests in
  let fconfig = { Flow.secret_substrates = config.Lint_rules.secret_substrates } in
  let nodes = List.map (fun m -> m.Manifest.name) manifests in
  let holds_secret m =
    List.mem m.Manifest.substrate fconfig.Flow.secret_substrates
  in
  let index = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace index m.Manifest.name m) manifests;
  let find n = Hashtbl.find_opt index n in
  (* labels: run the solver with every node suspect = the batch fixpoint *)
  let edges = Flow.flow_edges manifests in
  let request_edges = List.filter (fun e -> not e.Flow.e_reply) edges in
  let taint_adj = Flow.adjacency request_edges in
  let secret_adj = Flow.adjacency edges in
  let all = set_of_list nodes in
  let taint = Hashtbl.create 16 and secrecy = Hashtbl.create 16 in
  re_solve taint ~suspects:all ~adj:taint_adj
    ~radj:(fun _ -> [])
    ~base:(fun n ->
      match find n with
      | Some m when Flow.tainted_base m -> Flow_lattice.tainted
      | _ -> Flow_lattice.public);
  re_solve secrecy ~suspects:all ~adj:secret_adj
    ~radj:(fun _ -> [])
    ~base:(fun n ->
      match find n with
      | Some m when holds_secret m -> Flow_lattice.secret n
      | _ -> Flow_lattice.public);
  (* witnesses *)
  let holders =
    List.filter holds_secret manifests
    |> List.map (fun m -> m.Manifest.name)
    |> List.sort String.compare
  in
  let sources =
    List.filter Flow.tainted_base manifests
    |> List.map (fun m -> m.Manifest.name)
    |> List.sort String.compare
  in
  let secret_paths = Hashtbl.create 8 and taint_paths = Hashtbl.create 8 in
  let leaks_by = Hashtbl.create 8 and hits_by = Hashtbl.create 8 in
  List.iter
    (fun h ->
      let pf = Flow.bfs_paths secret_adj h in
      Hashtbl.replace secret_paths h pf;
      Hashtbl.replace leaks_by h (leaks_for manifests h pf))
    holders;
  List.iter
    (fun src ->
      let pf = Flow.bfs_paths taint_adj src in
      Hashtbl.replace taint_paths src pf;
      Hashtbl.replace hits_by src (hits_for holders src pf))
    sources;
  let flow = assemble_flow ~taint ~secrecy ~leaks_by ~hits_by ~edges nodes in
  (* contain: batch radii, then keep only dirty roots fresh per delta *)
  let cconfig = Lint_rules.contain_config config in
  let cedges = Contain.prop_edges cconfig manifests in
  let cgraph = Contain.graph cconfig manifests cedges in
  let radii = Hashtbl.create 16 in
  List.iter
    (fun m ->
      Hashtbl.replace radii m.Manifest.name
        (Contain.radius_of cgraph m.Manifest.name))
    manifests;
  let contain =
    Contain.assemble cconfig manifests cedges
      (Hashtbl.fold (fun _ r acc -> r :: acc) radii [])
  in
  (* lint, seeding the ctx with our flow and contain results so the
     solver-backed rules share them *)
  let ctx = Lint_rules.make_ctx manifests in
  ctx.Lint_rules.flow_memo := [ (fconfig, flow) ];
  ctx.Lint_rules.contain_memo := [ (cconfig, contain) ];
  let lint_cache = Hashtbl.create 32 in
  List.iter
    (fun (r : Lint_rules.rule) ->
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun m ->
          let ds = r.Lint_rules.check config ctx m in
          if ds <> [] then Hashtbl.replace tbl m.Manifest.name ds)
        manifests;
      Hashtbl.replace lint_cache r.Lint_rules.id tbl)
    Lint_rules.all;
  let diags = diags_of_cache lint_cache in
  (* kernel: exactly the declared authority, like Flow.provision, but
     total — dangling targets simply contribute no capability, and
     frames are best-effort (conformance is about capabilities) *)
  let n = List.length manifests in
  let pages = Option.value ~default:((2 * (n + 64)) + 8) dram_pages in
  let machine = Lt_hw.Machine.create ~dram_pages:pages () in
  let kernel = K.create machine (Lt_kernel.Sched.Round_robin { quantum = 500 }) in
  let tasks = Hashtbl.create 16 and eps = Hashtbl.create 16 in
  let badge = Hashtbl.create 16 in
  let recv_slot = Hashtbl.create 16 in
  let send_slot = Hashtbl.create 16 in
  List.iteri
    (fun i m ->
      let name = m.Manifest.name in
      let task = K.create_task kernel ~name ~partition:name in
      ignore (K.map_memory kernel task ~vpage:0 ~pages:1 Lt_hw.Mmu.rw);
      Hashtbl.replace tasks name task;
      let ep = K.create_endpoint kernel ~name:(name ^ ".ep") in
      Hashtbl.replace eps name ep;
      Hashtbl.replace recv_slot name
        (K.grant kernel task ep ~rights:{ K.send = false; recv = true } ~badge:0);
      Hashtbl.replace badge name (i + 1))
    manifests;
  List.iter
    (fun (caller, target) ->
      if Hashtbl.mem eps target then
        Hashtbl.replace send_slot (caller, target)
          (K.grant kernel (Hashtbl.find tasks caller) (Hashtbl.find eps target)
             ~rights:{ K.send = true; recv = false }
             ~badge:(Hashtbl.find badge caller)))
    (Flow.declared_pairs manifests);
  { config; fconfig; cconfig; manifests; ctx; flow; contain; diags; taint;
    secrecy; secret_paths; taint_paths; leaks_by; hits_by; lint_cache; radii;
    kernel; tasks; eps; badge; recv_slot; send_slot; next_badge = ref (n + 1) }

(* --- conformance -------------------------------------------------------------- *)

let conformance t = Flow.conformance ~config:t.fconfig t.manifests t.kernel
let conformance_clean t = Flow.conforms (conformance t)

(* --- the incremental kernel update -------------------------------------------- *)

let kernel_remove t name =
  (match Hashtbl.find_opt t.recv_slot name with
   | Some slot ->
     K.revoke t.kernel (Hashtbl.find t.tasks name) ~slot;
     Hashtbl.remove t.recv_slot name
   | None -> ());
  let mine =
    Hashtbl.fold
      (fun (c, tgt) slot acc ->
        if c = name || tgt = name then ((c, tgt), slot) :: acc else acc)
      t.send_slot []
  in
  List.iter
    (fun ((c, tgt), slot) ->
      K.revoke t.kernel (Hashtbl.find t.tasks c) ~slot;
      Hashtbl.remove t.send_slot (c, tgt))
    mine

let kernel_grant_send t caller target =
  if not (Hashtbl.mem t.send_slot (caller, target)) then
    Hashtbl.replace t.send_slot (caller, target)
      (K.grant t.kernel
         (Hashtbl.find t.tasks caller)
         (Hashtbl.find t.eps target)
         ~rights:{ K.send = true; recv = false }
         ~badge:(Hashtbl.find t.badge caller))

let kernel_revoke_send t caller target =
  match Hashtbl.find_opt t.send_slot (caller, target) with
  | Some slot ->
    K.revoke t.kernel (Hashtbl.find t.tasks caller) ~slot;
    Hashtbl.remove t.send_slot (caller, target)
  | None -> ()

(* the out-pairs the kernel should hold for [m] against the current fleet *)
let desired_out find m =
  List.filter_map
    (fun c ->
      if c.Manifest.target <> m.Manifest.name && find c.Manifest.target <> None
      then Some c.Manifest.target
      else None)
    m.Manifest.connects_to
  |> List.sort_uniq String.compare

let kernel_add t ctx find m =
  let name = m.Manifest.name in
  (* tasks and endpoints are recycled on re-admission *)
  if not (Hashtbl.mem t.tasks name) then begin
    let task = K.create_task t.kernel ~name ~partition:name in
    ignore (K.map_memory t.kernel task ~vpage:0 ~pages:1 Lt_hw.Mmu.rw);
    Hashtbl.replace t.tasks name task;
    Hashtbl.replace t.eps name (K.create_endpoint t.kernel ~name:(name ^ ".ep"))
  end;
  if not (Hashtbl.mem t.badge name) then begin
    Hashtbl.replace t.badge name !(t.next_badge);
    incr t.next_badge
  end;
  if not (Hashtbl.mem t.recv_slot name) then
    Hashtbl.replace t.recv_slot name
      (K.grant t.kernel (Hashtbl.find t.tasks name) (Hashtbl.find t.eps name)
         ~rights:{ K.send = false; recv = true } ~badge:0);
  List.iter (fun tgt -> kernel_grant_send t name tgt) (desired_out find m);
  (* channels into the newcomer become grantable *)
  List.iter
    (fun (caller, _, _) ->
      let c = caller.Manifest.name in
      if c <> name then kernel_grant_send t c name)
    (Lint_rules.inbound ctx name)

let kernel_update t find m =
  let name = m.Manifest.name in
  let held =
    Hashtbl.fold
      (fun (c, tgt) _ acc -> if c = name then tgt :: acc else acc)
      t.send_slot []
  in
  let want = desired_out find m in
  List.iter
    (fun tgt -> if not (List.mem tgt want) then kernel_revoke_send t name tgt)
    held;
  List.iter
    (fun tgt -> if not (List.mem tgt held) then kernel_grant_send t name tgt)
    want

(* --- apply -------------------------------------------------------------------- *)

let apply d t =
  let old_manifests = t.manifests in
  let new_manifests = Delta.apply d old_manifests in
  if new_manifests = old_manifests then (t, t.diags)
  else begin
    let cfg = t.config and fconfig = t.fconfig in
    let old_ctx = t.ctx in
    let ctx = Lint_rules.make_ctx new_manifests in
    let old_find n = Lint_rules.find old_ctx n in
    let find n = Lint_rules.find ctx n in
    (* the delta's footprint: components whose definition changed *)
    let changed = Hashtbl.create 4 in
    List.iter
      (fun m ->
        match old_find m.Manifest.name with
        | Some om when om = m -> ()
        | _ -> Hashtbl.replace changed m.Manifest.name ())
      new_manifests;
    List.iter
      (fun m ->
        if find m.Manifest.name = None then
          Hashtbl.replace changed m.Manifest.name ())
      old_manifests;
    let removed =
      List.filter_map
        (fun m ->
          if find m.Manifest.name = None then Some m.Manifest.name else None)
        old_manifests
    in
    (* --- flow: restricted re-solve on the affected frontier ----------------- *)
    let old_edges = t.flow.Flow.edges in
    let edges = Flow.flow_edges new_manifests in
    let rec ediff olds news added dropped =
      match (olds, news) with
      | [], [] -> (added, dropped)
      | o :: os, [] -> ediff os [] added (o :: dropped)
      | [], n :: ns -> ediff [] ns (n :: added) dropped
      | o :: os, n :: ns ->
        let c = Stdlib.compare o n in
        if c = 0 then ediff os ns added dropped
        else if c < 0 then ediff os news added (o :: dropped)
        else ediff olds ns (n :: added) dropped
    in
    let edges_added, edges_removed = ediff old_edges edges [] [] in
    let edge_delta = edges_added @ edges_removed in
    let request_delta = List.filter (fun e -> not e.Flow.e_reply) edge_delta in
    let request_edges = List.filter (fun e -> not e.Flow.e_reply) edges in
    let old_request = List.filter (fun e -> not e.Flow.e_reply) old_edges in
    let taint_adj = Flow.adjacency request_edges in
    let taint_radj = Flow.adjacency (List.map flip request_edges) in
    let secret_adj = Flow.adjacency edges in
    let secret_radj = Flow.adjacency (List.map flip edges) in
    let old_taint_radj = Flow.adjacency (List.map flip old_request) in
    let old_secret_radj = Flow.adjacency (List.map flip old_edges) in
    let holds_secret m =
      List.mem m.Manifest.substrate fconfig.Flow.secret_substrates
    in
    let tbase n =
      match find n with Some m -> Flow.tainted_base m | None -> false
    in
    let old_tbase n =
      match old_find n with Some m -> Flow.tainted_base m | None -> false
    in
    let hbase n = match find n with Some m -> holds_secret m | None -> false in
    let old_hbase n =
      match old_find n with Some m -> holds_secret m | None -> false
    in
    List.iter
      (fun n ->
        Hashtbl.remove t.taint n;
        Hashtbl.remove t.secrecy n)
      removed;
    let s0_of base_changed delta =
      let s = Hashtbl.create 8 in
      Hashtbl.iter
        (fun n () ->
          if find n <> None && (old_find n = None || base_changed n) then
            Hashtbl.replace s n ())
        changed;
      List.iter
        (fun e ->
          if find e.Flow.e_dst <> None then Hashtbl.replace s e.Flow.e_dst ())
        delta;
      s
    in
    let s0_taint = s0_of (fun n -> old_tbase n <> tbase n) request_delta in
    let s0_secret = s0_of (fun n -> old_hbase n <> hbase n) edge_delta in
    let suspects_taint = closure taint_adj s0_taint in
    let suspects_secret = closure secret_adj s0_secret in
    let label_changed = Hashtbl.create 8 in
    let solve_and_track tbl suspects adj radj base =
      let old_vals = Hashtbl.create 16 in
      Hashtbl.iter
        (fun n () ->
          Hashtbl.replace old_vals n
            (Option.value ~default:Flow_lattice.public (Hashtbl.find_opt tbl n)))
        suspects;
      re_solve tbl ~suspects ~adj ~radj ~base;
      Hashtbl.iter
        (fun n ov ->
          let nv =
            Option.value ~default:Flow_lattice.public (Hashtbl.find_opt tbl n)
          in
          if not (Flow_lattice.equal ov nv) then
            Hashtbl.replace label_changed n ())
        old_vals
    in
    solve_and_track t.taint suspects_taint taint_adj taint_radj (fun n ->
        if tbase n then Flow_lattice.tainted else Flow_lattice.public);
    solve_and_track t.secrecy suspects_secret secret_adj secret_radj (fun n ->
        if hbase n then Flow_lattice.secret n else Flow_lattice.public);
    (* --- witnesses: re-search only holders/sources the delta can reach ------ *)
    let holders =
      List.filter holds_secret new_manifests
      |> List.map (fun m -> m.Manifest.name)
      |> List.sort String.compare
    in
    let sources =
      List.filter Flow.tainted_base new_manifests
      |> List.map (fun m -> m.Manifest.name)
      |> List.sort String.compare
    in
    (* a cached BFS tree is stale iff its root reaches (in the old or
       the new graph) a node whose adjacency the delta touched *)
    let structure_dirty old_radj radj delta =
      let imp = Hashtbl.create 8 in
      List.iter
        (fun e ->
          Hashtbl.replace imp e.Flow.e_src ();
          Hashtbl.replace imp e.Flow.e_dst ())
        delta;
      let r1 = closure old_radj imp in
      let r2 = closure radj imp in
      fun n -> Hashtbl.mem r1 n || Hashtbl.mem r2 n
    in
    let secret_dirty = structure_dirty old_secret_radj secret_radj edge_delta in
    let taint_dirty =
      structure_dirty old_taint_radj taint_radj request_delta
    in
    let sink_changed =
      Hashtbl.fold
        (fun n () acc -> if old_tbase n <> tbase n then n :: acc else acc)
        changed []
    in
    let holder_flip =
      Hashtbl.fold
        (fun n () acc -> if old_hbase n <> hbase n then n :: acc else acc)
        changed []
    in
    let leaks_changed = Hashtbl.create 4 and hits_changed = Hashtbl.create 4 in
    Hashtbl.fold (fun h _ acc -> h :: acc) t.leaks_by []
    |> List.iter (fun h ->
           if not (hbase h) then begin
             Hashtbl.remove t.leaks_by h;
             Hashtbl.remove t.secret_paths h
           end);
    List.iter
      (fun h ->
        if (not (Hashtbl.mem t.secret_paths h)) || secret_dirty h then begin
          let pf = Flow.bfs_paths secret_adj h in
          Hashtbl.replace t.secret_paths h pf;
          let nl = leaks_for new_manifests h pf in
          if Hashtbl.find_opt t.leaks_by h <> Some nl then begin
            Hashtbl.replace t.leaks_by h nl;
            Hashtbl.replace leaks_changed h ()
          end
        end
        else if sink_changed <> [] then begin
          let pf = Hashtbl.find t.secret_paths h in
          let cur = Hashtbl.find t.leaks_by h in
          let kept =
            List.filter
              (fun l -> not (List.mem l.Flow.l_sink sink_changed))
              cur
          in
          let adds =
            List.filter_map
              (fun n ->
                if n = h || not (tbase n) then None
                else
                  match pf n with
                  | Some path ->
                    Some { Flow.l_secret = h; l_sink = n; l_path = path }
                  | None -> None)
              sink_changed
          in
          let nl = List.sort Stdlib.compare (adds @ kept) in
          if nl <> cur then begin
            Hashtbl.replace t.leaks_by h nl;
            Hashtbl.replace leaks_changed h ()
          end
        end)
      holders;
    Hashtbl.fold (fun s _ acc -> s :: acc) t.hits_by []
    |> List.iter (fun src ->
           if not (tbase src) then begin
             Hashtbl.remove t.hits_by src;
             Hashtbl.remove t.taint_paths src
           end);
    List.iter
      (fun src ->
        if (not (Hashtbl.mem t.taint_paths src)) || taint_dirty src then begin
          let pf = Flow.bfs_paths taint_adj src in
          Hashtbl.replace t.taint_paths src pf;
          let nh = hits_for holders src pf in
          if Hashtbl.find_opt t.hits_by src <> Some nh then begin
            Hashtbl.replace t.hits_by src nh;
            Hashtbl.replace hits_changed src ()
          end
        end
        else if holder_flip <> [] then begin
          let pf = Hashtbl.find t.taint_paths src in
          let cur = Hashtbl.find t.hits_by src in
          let kept =
            List.filter (fun h -> not (List.mem h.Flow.t_sink holder_flip)) cur
          in
          let adds =
            List.filter_map
              (fun n ->
                if n = src || not (hbase n) then None
                else
                  match pf n with
                  | Some path ->
                    Some
                      { Flow.t_source = src; t_sink = n; t_path = path;
                        t_direct = List.length path = 2 }
                  | None -> None)
              holder_flip
          in
          let nh = List.sort Stdlib.compare (adds @ kept) in
          if nh <> cur then begin
            Hashtbl.replace t.hits_by src nh;
            Hashtbl.replace hits_changed src ()
          end
        end)
      sources;
    let nodes = List.map (fun m -> m.Manifest.name) new_manifests in
    let flow =
      assemble_flow ~taint:t.taint ~secrecy:t.secrecy ~leaks_by:t.leaks_by
        ~hits_by:t.hits_by ~edges nodes
    in
    ctx.Lint_rules.flow_memo := [ (fconfig, flow) ];
    let changed_list = Hashtbl.fold (fun n () acc -> n :: acc) changed [] in
    (* --- contain: re-derive only the dirty roots ----------------------------- *)
    let old_cedges = t.contain.Contain.edges in
    let cedges = Contain.prop_edges t.cconfig new_manifests in
    let ctouched =
      List.filter
        (fun n ->
          match (old_find n, find n) with
          | Some a, Some b -> contain_inputs a <> contain_inputs b
          | _ -> true (* added or removed *))
        changed_list
    in
    let cdirty =
      Contain.dirty_roots ~old_edges:old_cedges ~new_edges:cedges
        ~touched:ctouched
    in
    let cgraph = Contain.graph t.cconfig new_manifests cedges in
    List.iter (fun n -> Hashtbl.remove t.radii n) removed;
    let radius_changed = ref [] in
    List.iter
      (fun n ->
        match find n with
        | None -> Hashtbl.remove t.radii n
        | Some _ ->
          let r = Contain.radius_of cgraph n in
          (match Hashtbl.find_opt t.radii n with
           | Some old when old = r -> ()
           | _ -> radius_changed := n :: !radius_changed);
          Hashtbl.replace t.radii n r)
      cdirty;
    let contain =
      Contain.assemble t.cconfig new_manifests cedges
        (Hashtbl.fold (fun _ r acc -> r :: acc) t.radii [])
    in
    ctx.Lint_rules.contain_memo := [ (t.cconfig, contain) ];
    (* --- lint: per-scope dirty seeds ---------------------------------------- *)
    let in_callers_of n =
      List.map
        (fun (caller, _, _) -> caller.Manifest.name)
        (Lint_rules.inbound ctx n)
    in
    let neighborhood_dirty =
      List.concat_map
        (fun n ->
          let targets_of = function
            | None -> []
            | Some m ->
              List.map (fun c -> c.Manifest.target) m.Manifest.connects_to
          in
          let doms =
            (match old_find n with Some m -> [ m.Manifest.domain ] | None -> [])
            @ (match find n with Some m -> [ m.Manifest.domain ] | None -> [])
          in
          let dom_members =
            List.concat_map
              (fun d ->
                Option.value ~default:[]
                  (Hashtbl.find_opt old_ctx.Lint_rules.domain_dedup d)
                @ Option.value ~default:[]
                    (Hashtbl.find_opt ctx.Lint_rules.domain_dedup d))
              doms
          in
          (n :: targets_of (old_find n))
          @ targets_of (find n)
          @ in_callers_of n @ dom_members)
        changed_list
    in
    (* L007: seeds that can reach a changed component along unvetted
       channels, pruned to those that (old or new) reach a legacy-OS
       component at all — the only seeds whose verdict can be nonempty *)
    let unvetted_radj ms =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun m ->
          List.iter
            (fun c ->
              if not c.Manifest.vetted then
                Hashtbl.replace tbl c.Manifest.target
                  (m.Manifest.name
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt tbl c.Manifest.target)))
            m.Manifest.connects_to)
        ms;
      fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)
    in
    let legacy_of ms =
      List.filter_map
        (fun m ->
          if m.Manifest.substrate = "monolithic-os" then Some m.Manifest.name
          else None)
        ms
    in
    let rev_old = unvetted_radj old_manifests in
    let rev_new = unvetted_radj new_manifests in
    let legacy_reach_old = closure rev_old (set_of_list (legacy_of old_manifests)) in
    let legacy_reach_new = closure rev_new (set_of_list (legacy_of new_manifests)) in
    let changed_reach_old = closure rev_old changed in
    let changed_reach_new = closure rev_new changed in
    let l007_dirty =
      changed_list
      @ List.filter
          (fun n ->
            (Hashtbl.mem changed_reach_old n || Hashtbl.mem changed_reach_new n)
            && (Hashtbl.mem legacy_reach_old n || Hashtbl.mem legacy_reach_new n))
          nodes
    in
    (* L009: any new or destroyed cycle passes through a changed node's
       channels, so only then does the whole-graph scan re-run *)
    let full_adj ms =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun m ->
          Hashtbl.replace tbl m.Manifest.name
            (List.map (fun c -> c.Manifest.target) m.Manifest.connects_to))
        ms;
      fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)
    in
    let topology_changed =
      List.exists
        (fun n ->
          let targets = function
            | None -> []
            | Some m ->
              List.map (fun c -> c.Manifest.target) m.Manifest.connects_to
              |> List.sort_uniq String.compare
          in
          targets (old_find n) <> targets (find n))
        changed_list
    in
    let l009_dirty =
      if not topology_changed then []
      else begin
        let on_cycle adj n = Hashtbl.mem (closure adj (set_of_list (adj n))) n in
        let oadj = full_adj old_manifests and nadj = full_adj new_manifests in
        if
          List.exists
            (fun n ->
              (old_find n <> None && on_cycle oadj n)
              || (find n <> None && on_cycle nadj n))
            changed_list
        then nodes
        else []
      end
    in
    let witness_sinks_touching tbl sink_of =
      Hashtbl.fold
        (fun seed entries acc ->
          if List.exists (fun e -> Hashtbl.mem changed (sink_of e)) entries then
            seed :: acc
          else acc)
        tbl []
    in
    let l006_dirty =
      changed_list
      @ Hashtbl.fold (fun s () acc -> s :: acc) hits_changed []
      @ witness_sinks_touching t.hits_by (fun h -> h.Flow.t_sink)
    in
    let l014_dirty =
      changed_list
      @ Hashtbl.fold (fun h () acc -> h :: acc) leaks_changed []
      @ witness_sinks_touching t.leaks_by (fun l -> l.Flow.l_sink)
    in
    (* L020/L021 read only the seed's own radius (plus, for L021, the
       fleet size); L022 reads the storm edges at the seed *)
    let contain_dirty =
      if List.length old_manifests <> List.length new_manifests then nodes
      else changed_list @ !radius_changed
    in
    let l022_dirty =
      let storms es =
        List.filter (fun e -> e.Contain.p_kind = Contain.Restart_storm) es
      in
      let acc = ref changed_list in
      let note (e : Contain.edge) =
        acc := e.Contain.p_src :: e.Contain.p_dst :: !acc
      in
      (* both lists sorted: linear symmetric difference *)
      let rec sdiff olds news =
        match (olds, news) with
        | [], [] -> ()
        | o :: os, [] -> note o; sdiff os []
        | [], n :: ns -> note n; sdiff [] ns
        | o :: os, n :: ns ->
          let c = Stdlib.compare o n in
          if c = 0 then sdiff os ns
          else if c < 0 then begin note o; sdiff os news end
          else begin note n; sdiff olds ns end
      in
      sdiff (storms old_cedges) (storms cedges);
      !acc
    in
    let l015_dirty =
      let base =
        changed_list @ Hashtbl.fold (fun n () acc -> n :: acc) label_changed []
      in
      base @ List.concat_map in_callers_of base
    in
    List.iter
      (fun n -> Hashtbl.iter (fun _ tbl -> Hashtbl.remove tbl n) t.lint_cache)
      removed;
    List.iter
      (fun (r : Lint_rules.rule) ->
        let dirty =
          match r.Lint_rules.scope with
          | Lint_rules.Component -> changed_list
          | Lint_rules.Neighborhood -> neighborhood_dirty
          | Lint_rules.Graph ->
            (match r.Lint_rules.id with
             | "L006-taint-flow" | "L016-transitive-taint-into-enclave" ->
               l006_dirty
             | "L014-label-leak" -> l014_dirty
             | "L007-legacy-tcb" -> l007_dirty
             | "L009-channel-cycle" -> l009_dirty
             | "L015-dead-declassifier" -> l015_dirty
             | "L020-unbounded-blast-radius" | "L021-single-point-of-failure" ->
               contain_dirty
             | "L022-restart-storm-cycle" -> l022_dirty
             | _ -> nodes (* unknown graph rule: re-run everything *))
        in
        let tbl = Hashtbl.find t.lint_cache r.Lint_rules.id in
        List.iter
          (fun n ->
            match find n with
            | None -> Hashtbl.remove tbl n
            | Some m ->
              let ds = r.Lint_rules.check cfg ctx m in
              if ds = [] then Hashtbl.remove tbl n
              else Hashtbl.replace tbl n ds)
          (List.sort_uniq String.compare dirty))
      Lint_rules.all;
    let diags = diags_of_cache t.lint_cache in
    (* --- kernel: re-derive caps for the touched pairs only ------------------- *)
    Hashtbl.iter
      (fun n () ->
        match (old_find n, find n) with
        | Some _, None -> kernel_remove t n
        | None, Some m -> kernel_add t ctx find m
        | Some _, Some m -> kernel_update t find m
        | None, None -> ())
      changed;
    let t' = { t with manifests = new_manifests; ctx; flow; contain; diags } in
    (t', diags)
  end

(* --- the batch oracle ---------------------------------------------------------- *)

let divergence t =
  let batch_diags = Lint.run ~config:t.config t.manifests in
  let batch_flow = Flow.analyze ~config:t.fconfig t.manifests in
  let batch_contain = Contain.analyze ~config:t.cconfig t.manifests in
  if t.diags <> batch_diags then
    Some "diagnostics diverge from a from-scratch Lint.run"
  else if
    Lint.render_text ~file:"fleet" t.diags
    <> Lint.render_text ~file:"fleet" batch_diags
  then Some "lint rendering diverges from a from-scratch Lint.run"
  else if t.flow <> batch_flow then
    Some "flow result diverges from a from-scratch Flow.analyze"
  else if
    Flow.render_text ~file:"fleet" t.flow
    <> Flow.render_text ~file:"fleet" batch_flow
  then Some "flow rendering diverges from a from-scratch Flow.analyze"
  else if t.contain <> batch_contain then
    Some "contain result diverges from a from-scratch Contain.analyze"
  else if
    Contain.render_text ~file:"fleet" t.contain
    <> Contain.render_text ~file:"fleet" batch_contain
  then Some "contain rendering diverges from a from-scratch Contain.analyze"
  else if not (conformance_clean t) then
    Some "kernel capability state does not conform to the fleet"
  else None

(* --- per-trust-domain slice ---------------------------------------------------- *)

let domain_slice t tenant =
  let path = Flow.trust_paths t.manifests in
  let mine n = match path n with [] -> false | x :: _ -> x = tenant in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "tenant %s\n" tenant;
  add "lint:\n";
  List.iter
    (fun d ->
      if mine d.Diagnostic.component then add "  %s\n" (Diagnostic.to_text d))
    t.diags;
  add "flow labels:\n";
  List.iter
    (fun (n, l) -> if mine n then add "  %s: %s\n" n (Flow_lattice.to_string l))
    t.flow.Flow.labels;
  add "leaks:\n";
  List.iter
    (fun l ->
      if mine l.Flow.l_secret then
        add "  %s -> %s via %s\n" l.Flow.l_secret l.Flow.l_sink
          (String.concat " -> " l.Flow.l_path))
    t.flow.Flow.leaks;
  add "taint hits:\n";
  List.iter
    (fun h ->
      if mine h.Flow.t_source then
        add "  %s -> %s via %s\n" h.Flow.t_source h.Flow.t_sink
          (String.concat " -> " h.Flow.t_path))
    t.flow.Flow.taint_hits;
  add "contain:\n";
  List.iter
    (fun rad ->
      if mine rad.Contain.r_root then
        add "  %s [%s] %s%s\n" rad.Contain.r_root
          (Contain.impact_to_string rad.Contain.r_self)
          (String.concat ", "
             (List.filter_map
                (fun (n, i) ->
                  if n = rad.Contain.r_root then None
                  else Some (n ^ " " ^ Contain.impact_to_string i))
                rad.Contain.r_hit))
          (match rad.Contain.r_escape with
           | None -> ""
           | Some x -> Printf.sprintf " ESCAPES via %s" x.Contain.x_victim))
    t.contain.Contain.radii;
  Buffer.contents buf
