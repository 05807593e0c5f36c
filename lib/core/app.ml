type ctx = {
  self : string;
  call : target:string -> service:string -> string -> (string, string) result;
}

type behaviour = ctx -> service:string -> string -> string

type violation = { v_caller : string; v_target : string; v_service : string }

type comp = {
  man : Manifest.t;
  mutable behave : behaviour;
  mutable owned : bool;      (* compromised *)
  mutable scanned : bool;    (* compromised payload already ran its sweep *)
  mutable attempts : (string * string * bool) list; (* target, service, allowed *)
}

type t = {
  comps : (string, comp) Hashtbl.t;
  mutable viols : violation list; (* newest first *)
}

let create () = { comps = Hashtbl.create 16; viols = [] }

let add t man behave =
  if Hashtbl.mem t.comps man.Manifest.name then
    invalid_arg (Printf.sprintf "App.add: duplicate component %s" man.Manifest.name);
  Hashtbl.replace t.comps man.Manifest.name
    { man; behave; owned = false; scanned = false; attempts = [] }

let add_stub t man =
  add t man (fun _ ~service req -> Printf.sprintf "%s:%s:%s" man.Manifest.name service req)

let validate t =
  let dangling = ref [] in
  Hashtbl.iter
    (fun name comp ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt t.comps c.Manifest.target with
          | None ->
            dangling :=
              Printf.sprintf "%s -> %s (no such component)" name c.Manifest.target
              :: !dangling
          | Some target ->
            if not (List.mem c.Manifest.service target.man.Manifest.provides) then
              dangling :=
                Printf.sprintf "%s -> %s.%s (no such service)" name c.Manifest.target
                  c.Manifest.service
                :: !dangling)
        comp.man.Manifest.connects_to)
    t.comps;
  if !dangling = [] then Ok () else Error (List.sort Stdlib.compare !dangling)

let manifests t =
  Hashtbl.fold (fun _ c acc -> c.man :: acc) t.comps []
  |> List.sort (fun a b -> Stdlib.compare a.Manifest.name b.Manifest.name)

let manifest t name =
  Option.map (fun c -> c.man) (Hashtbl.find_opt t.comps name)

let set_behaviour t name behave =
  match Hashtbl.find_opt t.comps name with
  | None ->
    invalid_arg (Printf.sprintf "App.set_behaviour: no component %s" name)
  | Some comp -> comp.behave <- behave

let authorized t ~caller ~target ~service =
  match caller with
  | None ->
    (match Hashtbl.find_opt t.comps target with
     | Some c -> c.man.Manifest.network_facing
     | None -> false)
  | Some caller_name ->
    (match Hashtbl.find_opt t.comps caller_name with
     | None -> false
     | Some c ->
       List.exists
         (fun conn -> conn.Manifest.target = target && conn.Manifest.service = service)
         c.man.Manifest.connects_to)

type call_error =
  | Unknown_component of { caller : string; target : string; service : string }
  | Unknown_service of { target : string; service : string }
  | Denied of { caller : string; target : string; service : string }
  | Crashed of { target : string; reason : string }
  | Failed of { target : string; reason : string }

exception Call_failed of call_error

(* renders exactly the strings [call] has always returned, so string
   consumers and goldens are unaffected by the typed layer underneath *)
let render_call_error = function
  | Unknown_component { target; _ } -> Printf.sprintf "no component %S" target
  | Unknown_service { target; service } ->
    Printf.sprintf "component %s does not provide %s" target service
  | Denied { caller; target; service } ->
    Printf.sprintf "channel denied: %s -> %s.%s not in manifest" caller target
      service
  | Crashed { target; reason } ->
    Printf.sprintf "component %s crashed: %s" target reason
  | Failed { target; reason } ->
    Printf.sprintf "component %s failed: %s" target reason

(* a dead dependency is blamed on the component that is actually down,
   not on the callee that tripped over it *)
let of_substrate_error ~target = function
  | Substrate.Refused reason -> Failed { target; reason }
  | Substrate.Dep_crashed { origin; reason } -> Crashed { target = origin; reason }
  | (Substrate.Killed _ | Substrate.Fault _) as e ->
    Crashed { target; reason = Substrate.render_error e }

let rec call_typed t ~caller ~target ~service req =
  let caller_name = Option.value caller ~default:"<external>" in
  match Hashtbl.find_opt t.comps target with
  | None ->
    (* same deny-style observability as a blocked channel: a request to a
       component that does not exist is a routing fault, not a raise *)
    Lt_obs.Trace.event ~kind:"deny"
      ~name:(Lt_obs.Trace.span_name target service)
      ~attrs:(("reason", "unknown-component") :: Lt_obs.Trace.attr "caller" caller_name)
      ();
    Lt_obs.Metrics.incr "channel/unknown_target";
    Error (Unknown_component { caller = caller_name; target; service })
  | Some comp ->
    if not (authorized t ~caller ~target ~service) then begin
      t.viols <-
        { v_caller = caller_name; v_target = target; v_service = service }
        :: t.viols;
      Lt_obs.Trace.event ~kind:"deny"
        ~name:(Lt_obs.Trace.span_name target service)
        ~attrs:(Lt_obs.Trace.attr "caller" caller_name) ();
      Lt_obs.Metrics.incr "channel/denied";
      Error (Denied { caller = caller_name; target; service })
    end
    else if not (List.mem service comp.man.Manifest.provides) then
      Error (Unknown_service { target; service })
    else begin
      let ctx =
        { self = target;
          call = (fun ~target:t2 ~service:s2 r -> call t ~caller:(Some target) ~target:t2 ~service:s2 r) }
      in
      if comp.owned then run_payload t comp ctx;
      try
        Ok
          (Lt_obs.Trace.with_span ~kind:"call"
             ~name:(Lt_obs.Trace.span_name target service)
             ~attrs:(Lt_obs.Trace.attr "caller" caller_name)
             (fun () -> comp.behave ctx ~service req))
      with
      | Call_failed e -> Error e
      | exn -> Error (of_substrate_error ~target (Substrate.error_of_exn exn))
    end

and call t ~caller ~target ~service req =
  Result.map_error render_call_error (call_typed t ~caller ~target ~service req)

(* the attacker's payload: sweep every (component, service) in the app
   and record which channels the runtime lets through *)
and run_payload t comp ctx =
  if not comp.scanned then begin
    comp.scanned <- true;
    let targets =
      Hashtbl.fold
        (fun name c acc ->
          if name = comp.man.Manifest.name then acc
          else List.map (fun s -> (name, s)) c.man.Manifest.provides @ acc)
        t.comps []
      |> List.sort Stdlib.compare
    in
    List.iter
      (fun (target, service) ->
        let allowed =
          match ctx.call ~target ~service "exfiltrate" with
          | Ok _ -> true
          | Error _ -> false
        in
        comp.attempts <- (target, service, allowed) :: comp.attempts)
      targets
  end

let violations t = List.rev t.viols

let compromise t name =
  match Hashtbl.find_opt t.comps name with
  | None -> invalid_arg (Printf.sprintf "App.compromise: no component %s" name)
  | Some comp ->
    comp.owned <- true;
    (* the original behaviour is gone; the attacker answers everything *)
    comp.behave <- (fun _ ~service:_ _ -> "pwned")

let compromised t =
  Hashtbl.fold (fun name c acc -> if c.owned then name :: acc else acc) t.comps []
  |> List.sort Stdlib.compare

let exfiltration_attempts t name =
  match Hashtbl.find_opt t.comps name with
  | None -> []
  | Some c -> List.sort Stdlib.compare c.attempts

(* Comp records are mutated in place (set_behaviour, compromise) and
   never replaced after [add], so a fast path may capture one once and
   poll its flags allocation-free forever after. *)
let owned_getter t name =
  match Hashtbl.find_opt t.comps name with
  | None -> None
  | Some comp -> Some (fun () -> comp.owned)

(* --- Snapshottable ---------------------------------------------------- *)

module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

let take_snapshot t =
  let comps = Snap.save_hashtbl t.comps in
  let per_comp =
    Hashtbl.fold
      (fun _ c acc ->
        let behave = c.behave
        and owned = c.owned
        and scanned = c.scanned
        and attempts = c.attempts in
        (fun () ->
          c.behave <- behave;
          c.owned <- owned;
          c.scanned <- scanned;
          c.attempts <- attempts)
        :: acc)
      t.comps []
  in
  let viols = t.viols in
  fun () ->
    comps ();
    List.iter (fun restore -> restore ()) per_comp;
    t.viols <- viols

(* behaviours are closures and cannot be digested; names + flags +
   attempts + violations pin down everything restore puts back that a
   test can observe *)
let state_digest t =
  let d =
    List.fold_left
      (fun d (name, c) ->
        let d = D64.string d name in
        let d = D64.bool (D64.bool d c.owned) c.scanned in
        D64.list
          (fun d (target, service, allowed) ->
            D64.bool (D64.string (D64.string d target) service) allowed)
          d
          (List.sort Stdlib.compare c.attempts))
      (D64.int D64.basis (Hashtbl.length t.comps))
      (Snap.sorted_bindings t.comps)
  in
  D64.list
    (fun d v ->
      D64.string (D64.string (D64.string d v.v_caller) v.v_target) v.v_service)
    d t.viols
