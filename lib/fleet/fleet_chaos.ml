open Lt_crypto
open Lateral
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Json = Lt_obs.Json
module Load = Lt_load.Load

type partition_spec = {
  pt_host : string;
  pt_from : int;
  pt_heal : int;
  pt_asym : bool;
}

type plan = { kill_hosts : string list; partitions : partition_spec list }

let no_chaos = { kill_hosts = []; partitions = [] }

type report = {
  fc_hosts : int;
  fc_rogue : string list;
  fc_requests : int;
  fc_seed : int;
  fc_ok : int;
  fc_failed_excused : int;
  fc_failed_unexcused : int;
  fc_violation_detail : (int * string) list;
  fc_kills : (int * string) list;
  fc_partition_events : (int * string * string) list;
  fc_epochs : (string * int) list;
  fc_attests : (string * int) list;
  fc_attest_failures : int;
  fc_rogue_placements : int;
  fc_fenced : int;
  fc_placements : (string * string) list;
  fc_failovers : (string * string) list;
  fc_recovery_ticks : int list;
  fc_unplaced : string list;
  fc_observed : (string * Contain.impact) list;
  fc_radius_escapes : (string * Contain.impact * Contain.impact option) list;
  fc_unroutable : int;
  fc_counters : (string * int) list;
  fc_span_ticks : int;
}

let contained r =
  r.fc_failed_unexcused = 0 && r.fc_rogue_placements = 0
  && r.fc_radius_escapes = []

(* --- the built-in scenario ------------------------------------------------- *)

let restart_budget max = { Manifest.r_policy = Manifest.On_failure; r_max = max; r_window = 256 }

let scenario_components () =
  let gate =
    Manifest.v ~name:"gate" ~size_loc:3000 ~network_facing:true
      ~provides:[ "ingress" ]
      ~connects_to:[ Manifest.conn ~vetted:true "worker" "exec" ]
      ~restart:(restart_budget 3) ~placement:[ "class:commodity" ] ()
  in
  let worker =
    Manifest.v ~name:"worker" ~substrate:"sgx" ~size_loc:2000
      ~provides:[ "exec" ] ~restart:(restart_budget 3)
      ~placement:[ "class:tee" ] ()
  in
  let vault =
    Manifest.v ~name:"vault" ~substrate:"sep" ~size_loc:900 ~stateful:true
      ~network_facing:true ~provides:[ "seal" ] ~restart:(restart_budget 2)
      ~placement:[ "sep" ] ()
  in
  let audit =
    Manifest.v ~name:"audit" ~size_loc:600 ~network_facing:true
      ~provides:[ "log" ] ~restart:(restart_budget 3) ()
  in
  let gate_b ctx ~service:_ req =
    match ctx.Deploy.call_out_typed ~target:"worker" ~service:"exec" req with
    | Ok r -> "gated:" ^ r
    | Error e -> Substrate.fail ("worker unavailable: " ^ App.render_call_error e)
  in
  let worker_b _ctx ~service:_ req = "exec(" ^ req ^ ")" in
  let vault_b ctx ~service:_ req =
    ctx.Deploy.facilities.Substrate.f_store ~key:"latest" req;
    Printf.sprintf "sealed:%d" (String.length req)
  in
  let audit_b _ctx ~service:_ req = "logged:" ^ req in
  [ (gate, gate_b); (worker, worker_b); (vault, vault_b); (audit, audit_b) ]

(* --- plan validation -------------------------------------------------------- *)

let host_names n = List.init n (fun i -> Printf.sprintf "host-%d" (i + 1))

let validate_plan plan ~names ~rogue =
  let known h = List.mem h names in
  let bad p l = List.filter (fun x -> not (p x)) l in
  match bad known plan.kill_hosts with
  | h :: _ -> Error (Printf.sprintf "kill-host: unknown host %S" h)
  | [] ->
    (match bad (fun p -> known p.pt_host) plan.partitions with
     | p :: _ -> Error (Printf.sprintf "partition: unknown host %S" p.pt_host)
     | [] ->
       (match
          List.filter
            (fun p -> p.pt_from < 1 || (p.pt_heal <> 0 && p.pt_heal < p.pt_from))
            plan.partitions
        with
        | p :: _ ->
          Error
            (Printf.sprintf "partition of %s: heal %d before cut %d" p.pt_host
               p.pt_heal p.pt_from)
        | [] ->
          (match bad known rogue with
           | h :: _ -> Error (Printf.sprintf "rogue: unknown host %S" h)
           | [] -> Ok ())))

(* --- reproducers ------------------------------------------------------------ *)

type repro = {
  rp_hosts : int;
  rp_rogue : string list;
  rp_requests : int;
  rp_seed : int;
  rp_plan : plan;
}

let repro_magic = "fleet-repro v1"

let render_repro r =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s\n" repro_magic;
  add "hosts %d\n" r.rp_hosts;
  add "requests %d\n" r.rp_requests;
  add "seed %d\n" r.rp_seed;
  List.iter (fun h -> add "rogue %s\n" h) r.rp_rogue;
  List.iter (fun h -> add "kill-host %s\n" h) r.rp_plan.kill_hosts;
  List.iter
    (fun p ->
      add "partition %s %d %d%s\n" p.pt_host p.pt_from p.pt_heal
        (if p.pt_asym then " asym" else ""))
    r.rp_plan.partitions;
  Buffer.contents buf

let parse_repro text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty reproducer"
  | magic :: rest when magic = repro_magic ->
    let r =
      ref
        { rp_hosts = 3;
          rp_rogue = [];
          rp_requests = 40;
          rp_seed = 1;
          rp_plan = no_chaos }
    in
    let int_of what s =
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "bad %s %S" what s)
    in
    let step line =
      match String.split_on_char ' ' line with
      | [ "hosts"; n ] ->
        Result.map (fun n -> r := { !r with rp_hosts = n }) (int_of "hosts" n)
      | [ "requests"; n ] ->
        Result.map (fun n -> r := { !r with rp_requests = n }) (int_of "requests" n)
      | [ "seed"; n ] ->
        Result.map (fun n -> r := { !r with rp_seed = n }) (int_of "seed" n)
      | [ "rogue"; h ] ->
        Ok (r := { !r with rp_rogue = !r.rp_rogue @ [ h ] })
      | [ "kill-host"; h ] ->
        Ok
          (r :=
             { !r with
               rp_plan =
                 { !r.rp_plan with kill_hosts = !r.rp_plan.kill_hosts @ [ h ] } })
      | "partition" :: host :: from :: heal :: flags
        when flags = [] || flags = [ "asym" ] ->
        Result.bind (int_of "partition start" from) (fun pt_from ->
            Result.map
              (fun pt_heal ->
                let p = { pt_host = host; pt_from; pt_heal; pt_asym = flags <> [] } in
                r :=
                  { !r with
                    rp_plan =
                      { !r.rp_plan with
                        partitions = !r.rp_plan.partitions @ [ p ] } })
              (int_of "partition heal" heal))
      | _ -> Error (Printf.sprintf "unknown reproducer line %S" line)
    in
    let rec go = function
      | [] -> Ok !r
      | l :: rest -> (match step l with Ok () -> go rest | Error _ as e -> e)
    in
    go rest
  | magic :: _ ->
    Error (Printf.sprintf "not a fleet reproducer (expected %S, got %S)"
             repro_magic magic)

let load_repro path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse_repro text

(* --- the run ---------------------------------------------------------------- *)

let run ?(config = Fleet.default_config) ?(plan = no_chaos) ?(rogue = [])
    ?trace_capacity ~hosts ~requests ~seed () =
  if hosts < 1 then Error "a fleet needs at least one host"
  else if requests < 0 then Error "requests must be non-negative"
  else begin
    let names = host_names hosts in
    match validate_plan plan ~names ~rogue with
    | Error _ as e -> e
    | Ok () ->
      let specs =
        List.map
          (fun n ->
            Fleet.host_spec ~rogue:(List.mem n rogue) ~name:n
              ~substrates:[ "microkernel"; "sgx"; "sep" ] ())
          names
      in
      let components = scenario_components () in
      let manifests = List.map fst components in
      (* harness entropy is a separate stream from the fleet's, like the
         component chaos harness (seed vs seed + 1) *)
      let hrng = Drbg.create (Int64.of_int (seed + 1)) in
      let result, tracer, metrics =
        Load.instrumented ?trace_capacity (fun () ->
          match
            Fleet.create ~config ~seed:(Int64.of_int seed) ~hosts:specs
              ~components ()
          with
          | Error e -> Error e
          | Ok fleet ->
            (match Fleet.place_all fleet with
             | Error e -> Error e
             | Ok () ->
               let cluster_of =
                 let tbl = Hashtbl.create 8 in
                 List.iter
                   (fun (id, members) ->
                     List.iter (fun m -> Hashtbl.replace tbl m id) members)
                   (Fleet.clusters fleet);
                 tbl
               in
               let schedule = Load.schedule hrng ~requests plan.kill_hosts in
               let ok = ref 0 and excused = ref 0 and unexcused = ref 0 in
               let violation_detail = ref [] in
               let kills = ref [] and part_events = ref [] in
               let degraded = Hashtbl.create 8 in
               (* components resident on a host at the instant it was
                  killed or cut: the roots the static radii are read
                  for *)
               let roots = Hashtbl.create 8 in
               let cut_hosts = Hashtbl.create 4 in
               let collect_roots host =
                 List.iter
                   (fun (id, members) ->
                     if Fleet.owner fleet id = Some host then
                       List.iter (fun m -> Hashtbl.replace roots m ()) members)
                   (Fleet.clusters fleet)
               in
               for i = 1 to requests do
                 Trace.set_trace i;
                 List.iter
                   (fun (at, host) ->
                     if at = i then begin
                       collect_roots host;
                       ignore (Fleet.kill_host fleet host);
                       kills := (i, host) :: !kills
                     end)
                   schedule;
                 List.iter
                   (fun p ->
                     if p.pt_from = i then begin
                       collect_roots p.pt_host;
                       Fleet.partition fleet ~host:p.pt_host ~asym:p.pt_asym ();
                       Hashtbl.replace cut_hosts p.pt_host ();
                       part_events :=
                         (i, p.pt_host, if p.pt_asym then "cut-asym" else "cut")
                         :: !part_events
                     end;
                     if p.pt_heal = i then begin
                       Fleet.heal fleet ~host:p.pt_host;
                       Hashtbl.remove cut_hosts p.pt_host;
                       part_events := (i, p.pt_host, "heal") :: !part_events
                     end)
                   plan.partitions;
                 let target, service, payload =
                   match Drbg.int hrng 3 with
                   | 0 -> ("gate", "ingress", Printf.sprintf "req-%d" i)
                   | 1 -> ("vault", "seal", Printf.sprintf "secret-%d" i)
                   | _ -> ("audit", "log", Printf.sprintf "evt-%d" i)
                 in
                 let cluster = Hashtbl.find cluster_of target in
                 let owner_before = Fleet.owner fleet cluster in
                 let hurt_before =
                   match owner_before with
                   | None -> true
                   | Some h ->
                     (not (Fleet.host_alive fleet h))
                     || Hashtbl.mem cut_hosts h
                 in
                 match
                   Load.request ~attrs:[ ("request", string_of_int i) ]
                     ~target ~service ~error:Fun.id (fun () ->
                       Fleet.call fleet ~target ~service payload)
                 with
                 | Load.Served | Load.Degraded ->
                   incr ok;
                   Metrics.incr "fleet_chaos/ok"
                 | Load.Failed e ->
                   let owner_after = Fleet.owner fleet cluster in
                   let excusable =
                     hurt_before || owner_after <> owner_before
                     || owner_after = None
                     || List.mem cluster (Fleet.unplaced fleet)
                   in
                   if excusable then begin
                     incr excused;
                     Metrics.incr "fleet_chaos/failed_excused";
                     List.iter
                       (fun (id, members) ->
                         if id = cluster then
                           List.iter
                             (fun m -> Hashtbl.replace degraded m ())
                             members)
                       (Fleet.clusters fleet)
                   end
                   else begin
                     incr unexcused;
                     Metrics.incr "fleet_chaos/failed_unexcused";
                     violation_detail :=
                       ( i,
                         Printf.sprintf
                           "%s.%s failed with its host healthy: %s" target
                           service e )
                       :: !violation_detail
                   end
               done;
               (* end-of-run reconcile: reconnect healed hosts (which
                  fences stale instances) and re-home orphans *)
               Fleet.sweep fleet;
               let failed_over = Fleet.failed_over_clusters fleet in
               let observed =
                 List.filter_map
                   (fun m ->
                     let c = m.Manifest.name in
                     let cluster = Hashtbl.find cluster_of c in
                     if List.mem cluster (Fleet.unplaced fleet) then
                       Some (c, Contain.Failed)
                     else if List.mem cluster failed_over then
                       Some (c, Contain.Restarted)
                     else if Hashtbl.mem degraded c then
                       Some (c, Contain.Degraded)
                     else None)
                   manifests
                 |> List.sort compare
               in
               let escapes =
                 Contain.audit (Contain.analyze manifests)
                   ~kills:(Hashtbl.fold (fun c () acc -> c :: acc) roots [])
                   observed
               in
               let placements =
                 List.filter_map
                   (fun (id, _) ->
                     Option.map (fun h -> (id, h)) (Fleet.owner fleet id))
                   (Fleet.clusters fleet)
                 |> List.sort compare
               in
               (* counters and ticks are read once the run is over *)
               Ok
                 { fc_hosts = hosts;
                   fc_rogue = List.sort compare rogue;
                   fc_requests = requests;
                   fc_seed = seed;
                   fc_ok = !ok;
                   fc_failed_excused = !excused;
                   fc_failed_unexcused = !unexcused;
                   fc_violation_detail = List.rev !violation_detail;
                   fc_kills = List.rev !kills;
                   fc_partition_events = List.rev !part_events;
                   fc_epochs = Fleet.host_epochs fleet;
                   fc_attests = Fleet.host_attests fleet;
                   fc_attest_failures = Fleet.attest_failures fleet;
                   fc_rogue_placements = Fleet.rogue_placements fleet;
                   fc_fenced = Fleet.fenced fleet;
                   fc_placements = placements;
                   fc_failovers = Fleet.failovers fleet;
                   fc_recovery_ticks = Fleet.recovery_ticks fleet;
                   fc_unplaced = Fleet.unplaced fleet;
                   fc_observed = observed;
                   fc_radius_escapes = escapes;
                   fc_unroutable =
                     Lt_net.Net.unroutable_count (Fleet.net fleet);
                   fc_counters = [];
                   fc_span_ticks = 0 }))
      in
      Result.map
        (fun r ->
          ( { r with
              fc_counters = Metrics.counters metrics;
              fc_span_ticks = Trace.now tracer },
            tracer ))
        result
  end

(* --- rendering --------------------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted -> List.nth sorted (List.length sorted / 2)

let allowed_to_string = function
  | None -> "untouched"
  | Some im -> Contain.impact_to_string im

let render_report_text r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "lateral fleet: %d hosts, %d requests, seed %d%s\n" r.fc_hosts
    r.fc_requests r.fc_seed
    (if r.fc_rogue = [] then ""
     else " (rogue: " ^ String.concat ", " r.fc_rogue ^ ")");
  add "  ok %d, failed %d (excused %d, unexcused %d)\n" r.fc_ok
    (r.fc_failed_excused + r.fc_failed_unexcused)
    r.fc_failed_excused r.fc_failed_unexcused;
  add "  host kills: %s\n"
    (if r.fc_kills = [] then "-"
     else
       String.concat ", "
         (List.map (fun (i, h) -> Printf.sprintf "%s@%d" h i) r.fc_kills));
  add "  partitions: %s\n"
    (if r.fc_partition_events = [] then "-"
     else
       String.concat ", "
         (List.map
            (fun (i, h, what) -> Printf.sprintf "%s %s@%d" h what i)
            r.fc_partition_events));
  add "  epochs: %s; attest failures %d; rogue placements %d\n"
    (String.concat ", "
       (List.map (fun (h, n) -> Printf.sprintf "%s %d" h n) r.fc_epochs))
    r.fc_attest_failures r.fc_rogue_placements;
  add "  placements: %s\n"
    (if r.fc_placements = [] then "-"
     else
       String.concat ", "
         (List.map
            (fun (c, h) -> Printf.sprintf "%s->%s" c h)
            r.fc_placements));
  add "  failovers: %s; fenced %d; unplaced: %s\n"
    (if r.fc_failovers = [] then "-"
     else
       String.concat ", "
         (List.map (fun (c, h) -> Printf.sprintf "%s->%s" c h) r.fc_failovers))
    r.fc_fenced
    (if r.fc_unplaced = [] then "-" else String.concat ", " r.fc_unplaced);
  add "  recovery ticks: %s (median %d)\n"
    (if r.fc_recovery_ticks = [] then "-"
     else String.concat ", " (List.map string_of_int r.fc_recovery_ticks))
    (median r.fc_recovery_ticks);
  add "  observed radius: %s\n"
    (if r.fc_observed = [] then "-"
     else
       String.concat ", "
         (List.map
            (fun (c, im) -> c ^ " " ^ Contain.impact_to_string im)
            r.fc_observed));
  List.iter
    (fun (c, got, allowed) ->
      add "  RADIUS ESCAPE: %s observed %s, statically allowed %s\n" c
        (Contain.impact_to_string got) (allowed_to_string allowed))
    r.fc_radius_escapes;
  List.iter
    (fun (i, detail) ->
      add "  CONTAINMENT VIOLATION at request %d: %s\n" i detail)
    r.fc_violation_detail;
  add "  unroutable packets: %d; ticks: %d\n" r.fc_unroutable r.fc_span_ticks;
  Buffer.add_string buf "counters:\n";
  List.iter (fun (k, v) -> add "  %-40s %d\n" k v) r.fc_counters;
  add "verdict: %s\n" (if contained r then "contained" else "NOT CONTAINED");
  Buffer.contents buf

let render_report_json r =
  let per_host kvs = Json.counts kvs in
  let pairs kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs) in
  Json.to_string
    (Json.Obj
       [ ("hosts", Json.Int r.fc_hosts); ("rogue", Json.strs r.fc_rogue);
         ("requests", Json.Int r.fc_requests); ("seed", Json.Int r.fc_seed);
         ("ok", Json.Int r.fc_ok); ("failed_excused", Json.Int r.fc_failed_excused);
         ("failed_unexcused", Json.Int r.fc_failed_unexcused);
         ( "kills",
           Json.List
             (List.map
                (fun (i, h) -> Json.Obj [ ("at", Json.Int i); ("host", Json.Str h) ])
                r.fc_kills) );
         ( "partitions",
           Json.List
             (List.map
                (fun (i, h, what) ->
                  Json.Obj
                    [ ("at", Json.Int i); ("host", Json.Str h);
                      ("event", Json.Str what) ])
                r.fc_partition_events) );
         ("epochs", per_host r.fc_epochs); ("attests", per_host r.fc_attests);
         ("attest_failures", Json.Int r.fc_attest_failures);
         ("rogue_placements", Json.Int r.fc_rogue_placements);
         ("placements", pairs r.fc_placements);
         ( "failovers",
           Json.List
             (List.map
                (fun (c, h) -> Json.Obj [ ("cluster", Json.Str c); ("to", Json.Str h) ])
                r.fc_failovers) );
         ("fenced", Json.Int r.fc_fenced);
         ("recovery_ticks", Json.List (List.map (fun t -> Json.Int t) r.fc_recovery_ticks));
         ("recovery_median", Json.Int (median r.fc_recovery_ticks));
         ("unplaced", Json.strs r.fc_unplaced);
         ( "observed",
           pairs
             (List.map (fun (c, im) -> (c, Contain.impact_to_string im)) r.fc_observed)
         );
         ( "radius_escapes",
           Json.List
             (List.map
                (fun (c, got, allowed) ->
                  Json.Obj
                    [ ("component", Json.Str c);
                      ("observed", Json.Str (Contain.impact_to_string got));
                      ("allowed", Json.Str (allowed_to_string allowed)) ])
                r.fc_radius_escapes) );
         ( "violations",
           Json.List
             (List.map
                (fun (i, d) -> Json.Obj [ ("at", Json.Int i); ("detail", Json.Str d) ])
                r.fc_violation_detail) );
         ("unroutable", Json.Int r.fc_unroutable);
         ("span_ticks", Json.Int r.fc_span_ticks);
         ("contained", Json.Bool (contained r));
         ("counters", Json.counts r.fc_counters) ])
  ^ "\n"

(* --- shard kills --------------------------------------------------------------- *)

let shard_of_host ~shards h =
  let prefix = "host-" in
  let plen = String.length prefix in
  if shards <= 0 then Error "shards must be positive"
  else if String.length h > plen && String.sub h 0 plen = prefix then
    match int_of_string_opt (String.sub h plen (String.length h - plen)) with
    | Some n when n >= 1 -> Ok ((n - 1) mod shards)
    | _ -> Error (Printf.sprintf "not a fleet host name: %S" h)
  else Error (Printf.sprintf "not a fleet host name: %S" h)

let shard_hosts ~hosts ~shards k =
  List.filter (fun h -> shard_of_host ~shards h = Ok k) (host_names hosts)

let kill_shard_plan ~hosts ~shards ~kill =
  if hosts <= 0 then Error "hosts must be positive"
  else if shards <= 0 || shards > hosts then
    Error "shards must be positive and at most hosts"
  else
    match List.find_opt (fun k -> k < 0 || k >= shards) kill with
    | Some k -> Error (Printf.sprintf "kill shard %d out of range" k)
    | None ->
      Ok
        { kill_hosts = List.concat_map (shard_hosts ~hosts ~shards) kill;
          partitions = [] }

let shard_kill_audit ~shards ~kill (r : report) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.fc_partition_events <> [] then
    err "audit requires a kill-only plan (report has partition events)";
  List.iter
    (fun (i, h) ->
      match shard_of_host ~shards h with
      | Error e -> err "%s" e
      | Ok k ->
        if not (List.mem k kill) then
          err "host %s killed at %d is not in a killed shard" h i)
    r.fc_kills;
  (* clusters that were resident on a dead host are exactly those that
     had to move (failovers) or ended the run homeless *)
  let touched =
    List.sort_uniq compare
      (List.map fst r.fc_failovers @ r.fc_unplaced)
  in
  let cluster_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (id, ms) ->
        List.iter (fun m -> Hashtbl.replace tbl m.Manifest.name id) ms)
      (Fleet.cluster_partition (List.map fst (scenario_components ())));
    tbl
  in
  let domain_set =
    String.concat ", " (List.map (Printf.sprintf "shard-%d") kill)
  in
  List.iter
    (fun (c, imp) ->
      match Hashtbl.find_opt cluster_of c with
      | None -> err "observed component %s is not in the scenario" c
      | Some cluster ->
        if not (List.mem cluster touched) then
          err
            "observed radius escapes the killed shards' domain set {%s}: \
             %s (%s) never lived on a killed host"
            domain_set c (Contain.impact_to_string imp))
    r.fc_observed;
  List.iter
    (fun (c, imp, allowed) ->
      err "static radius escape: %s observed %s, allowed %s" c
        (Contain.impact_to_string imp) (allowed_to_string allowed))
    r.fc_radius_escapes;
  match List.rev !errs with [] -> Ok () | l -> Error l
