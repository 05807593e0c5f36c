type ctx = {
  facilities : Substrate.facilities;
  call_out_typed :
    target:string -> service:string -> string -> (string, App.call_error) result;
}

type behaviour = ctx -> service:string -> string -> string

(* a precomputed dispatch edge: everything [call] would look up per
   request, resolved once at [resolve] time.  [r_ctx] is filled lazily
   from the facilities cache after the first slow call through the
   target (facilities only surface when a service actually runs). *)
type route = {
  r_caller : string option;
  r_target : string;
  r_service : string;
  r_behaviour : behaviour;
  r_owned : unit -> bool; (* poll of the App compromise flag, no alloc *)
  mutable r_ctx : ctx option;
}

type t = {
  app : App.t; (* manifests + channel policy; behaviours delegate below *)
  placements : (string, Substrate.t * Substrate.component) Hashtbl.t;
  specs : (string, Manifest.t * behaviour) Hashtbl.t;
      (* what was asked for, kept so a crashed component can be
         relaunched from its original spec *)
  facil : (string, Substrate.facilities) Hashtbl.t;
      (* facilities captured the first time each component's service
         actually runs; invalidated on crash/relaunch *)
  routes : (string option * string * string, route) Hashtbl.t;
}

(* no span here: the router's "call" span above this bridge and the
   substrate adapter's own span below it (ecall, smc, ipc-rpc, mailbox —
   each tagged with its substrate) already bracket the hop; a third
   identically-named span would only add per-call cost *)
let bridge sub comp _ctx ~service req =
  match sub.Substrate.invoke comp ~fn:service req with
  | Ok r -> r
  | Error e ->
    Lt_obs.Trace.fail_span (Substrate.render_error e);
    raise
      (App.Call_failed
         (App.of_substrate_error ~target:(Substrate.component_name comp) e))

let services_for ~self ~name ~behaviour provides =
  let service_for svc =
    ( svc,
      fun facilities req ->
        (* stash the facilities so the fast path can build its ctx; one
           [mem] per slow call once cached *)
        (match !self with
         | Some t when not (Hashtbl.mem t.facil name) ->
           Hashtbl.replace t.facil name facilities
         | _ -> ());
        let call_out_typed ~target ~service r =
          match !self with
          | None ->
            Error (App.Failed { target; reason = "router not ready" })
          | Some t -> App.call_typed t.app ~caller:(Some name) ~target ~service r
        in
        behaviour { facilities; call_out_typed } ~service:svc req )
  in
  List.map service_for provides

let deploy ~substrates components =
  let app = App.create () in
  let placements = Hashtbl.create 8 in
  let specs = Hashtbl.create 8 in
  (* tie the routing knot: component services capture this ref *)
  let self : t option ref = ref None in
  let launch_one (man, behaviour) =
    let name = man.Manifest.name in
    match List.assoc_opt man.Manifest.substrate substrates with
    | None ->
      Error
        (Printf.sprintf "component %s names unknown substrate %S" name
           man.Manifest.substrate)
    | Some sub ->
      (match
         sub.Substrate.launch ~name ~code:("component|" ^ name)
           ~services:(services_for ~self ~name ~behaviour man.Manifest.provides)
       with
       | Error e -> Error (Printf.sprintf "launching %s: %s" name e)
       | Ok comp ->
         Hashtbl.replace placements name (sub, comp);
         Hashtbl.replace specs name (man, behaviour);
         App.add app man (bridge sub comp);
         Ok ())
  in
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> (match launch_one c with Ok () -> go rest | Error _ as e -> e)
  in
  match go components with
  | Error e -> Error e
  | Ok () ->
    (match App.validate app with
     | Error errs -> Error ("manifest validation: " ^ String.concat "; " errs)
     | Ok () ->
       let t =
         { app; placements; specs;
           facil = Hashtbl.create 8;
           routes = Hashtbl.create 16 }
       in
       self := Some t;
       Ok t)

let call t ~caller ~target ~service req =
  App.call t.app ~caller ~target ~service req

let call_typed t ~caller ~target ~service req =
  App.call_typed t.app ~caller ~target ~service req

let components t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.placements []
  |> List.sort Stdlib.compare

let manifest t name = App.manifest t.app name

(* a crashed or relaunched instance invalidates its cached facilities
   and any route ctx built from them; the next slow call re-captures *)
let invalidate_fast t name =
  Hashtbl.remove t.facil name;
  Hashtbl.iter (fun _ r -> if r.r_target = name then r.r_ctx <- None) t.routes

let crash t name =
  match Hashtbl.find_opt t.placements name with
  | None -> Error (Printf.sprintf "no component %S" name)
  | Some (sub, comp) ->
    sub.Substrate.crash comp;
    invalidate_fast t name;
    Ok ()

let is_alive t name =
  match Hashtbl.find_opt t.placements name with
  | None -> false
  | Some (sub, comp) -> sub.Substrate.is_alive comp

let relaunch t name =
  match (Hashtbl.find_opt t.placements name, Hashtbl.find_opt t.specs name) with
  | None, _ | _, None -> Error (Printf.sprintf "no component %S" name)
  | Some (sub, old_comp), Some (man, behaviour) ->
    (* crash-only: there is no graceful stop, a live instance is killed
       before its replacement comes up *)
    if sub.Substrate.is_alive old_comp then sub.Substrate.crash old_comp;
    let self = ref (Some t) in
    (match
       sub.Substrate.launch ~name ~code:("component|" ^ name)
         ~services:(services_for ~self ~name ~behaviour man.Manifest.provides)
     with
     | Error e -> Error (Printf.sprintf "relaunching %s: %s" name e)
     | Ok comp ->
       Hashtbl.replace t.placements name (sub, comp);
       App.set_behaviour t.app name (bridge sub comp);
       invalidate_fast t name;
       Ok ())

let violations t = App.violations t.app

let substrate_of t name =
  Option.map
    (fun (sub, _) -> sub.Substrate.properties.Substrate.substrate_name)
    (Hashtbl.find_opt t.placements name)

(* scrub-everything fencing: destroy (not crash) so substrate adapters
   drop sealed state too, then forget the specs so nothing relaunches *)
let destroy t =
  Hashtbl.iter (fun _ (sub, comp) -> sub.Substrate.destroy comp) t.placements;
  Hashtbl.reset t.placements;
  Hashtbl.reset t.specs;
  Hashtbl.reset t.facil;
  Hashtbl.reset t.routes

let attest t ~component ~nonce ~claim =
  match Hashtbl.find_opt t.placements component with
  | None -> Error (Printf.sprintf "no component %S" component)
  | Some (sub, comp) -> sub.Substrate.attest comp ~nonce ~claim

(* --- the zero-alloc fast path ----------------------------------------- *)

let ctx_for t name facilities =
  { facilities;
    call_out_typed =
      (fun ~target ~service r ->
        App.call_typed t.app ~caller:(Some name) ~target ~service r) }

(* Routes exist only for statically authorized edges: the manifest graph
   is fixed at deploy time (compromise changes behaviour, never
   authority), so an edge checked here once never needs re-checking.
   Unauthorized or unknown edges get no route — callers fall back to the
   enforcing [call], which records the deny. *)
let resolve t ~caller ~target ~service =
  let key = (caller, target, service) in
  match Hashtbl.find_opt t.routes key with
  | Some _ as r -> r
  | None ->
    if not (App.authorized t.app ~caller ~target ~service) then None
    else
      (match Hashtbl.find_opt t.specs target with
       | None -> None
       | Some (man, behaviour) ->
         if not (List.mem service man.Manifest.provides) then None
         else
           (match App.owned_getter t.app target with
            | None -> None
            | Some r_owned ->
              let route =
                { r_caller = caller; r_target = target; r_service = service;
                  r_behaviour = behaviour; r_owned; r_ctx = None }
              in
              Hashtbl.replace t.routes key route;
              Some route))

(* The slow half: the full enforcing pipeline (spans, deny events,
   payload sweeps, the substrate hop).  On success it primes [r_ctx]
   from the facilities the call just surfaced, so the next fast call
   skips the transport. *)
let call_slow t route req =
  match
    call_typed t ~caller:route.r_caller ~target:route.r_target
      ~service:route.r_service req
  with
  | Ok r ->
    (if route.r_ctx = None then
       match Hashtbl.find_opt t.facil route.r_target with
       | Some facilities ->
         route.r_ctx <- Some (ctx_for t route.r_target facilities)
       | None -> ());
    r
  | Error e -> raise (App.Call_failed e)

(* Fast when nothing that needs the full pipeline can happen: a primed
   ctx, tracing off, target not compromised, instance alive.  Then the
   behaviour runs directly against its real facilities — no substrate
   hop, no span, no result boxing: zero minor words on this path.
   Everything else falls back to [call_slow]. *)
let call_fast t route req =
  match route.r_ctx with
  | Some ctx
    when (not (Lt_obs.Trace.enabled ()))
         && (not (route.r_owned ()))
         && (match Hashtbl.find t.placements route.r_target with
             | sub, comp -> sub.Substrate.is_alive comp
             | exception Not_found -> false) ->
    route.r_behaviour ctx ~service:route.r_service req
  | _ -> call_slow t route req

(* --- Snapshottable / world assembly ------------------------------------ *)

module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64
module World = Lt_world.World

let take_snapshot t =
  let app = App.take_snapshot t.app in
  let placements = Snap.save_hashtbl t.placements in
  let specs = Snap.save_hashtbl t.specs in
  let facil = Snap.save_hashtbl t.facil in
  let routes = Snap.save_hashtbl t.routes in
  let per_route =
    Hashtbl.fold
      (fun _ r acc ->
        let ctx = r.r_ctx in
        (fun () -> r.r_ctx <- ctx) :: acc)
      t.routes []
  in
  fun () ->
    app ();
    placements ();
    specs ();
    facil ();
    routes ();
    List.iter (fun restore -> restore ()) per_route

(* placements/specs/facil hold closures; App's digest plus which names
   are placed covers the observable control-plane state (substrate
   internals are their own layers) *)
let state_digest t =
  let d = App.state_digest t.app in
  let d = D64.int d (Hashtbl.length t.placements) in
  List.fold_left
    (fun d (name, (sub, comp)) ->
      let d = D64.string d name in
      let d = D64.string d sub.Substrate.properties.Substrate.substrate_name in
      D64.bool d (sub.Substrate.is_alive comp))
    d
    (Snap.sorted_bindings t.placements)

let layer ?(name = "deploy") t =
  Snap.make ~name
    ~take:(fun () -> take_snapshot t)
    ~digest:(fun () -> state_digest t)

(* Collect every adapter's layers (deduplicated: one adapter hosts many
   components) plus the deploy control plane.  Adapters sharing a
   machine or TPM each carry a layer over it; fork captures all layers
   at the same instant and restore is idempotent, so the double capture
   is harmless. *)
let world ?(extra = []) t =
  let w = World.create () in
  let subs =
    Hashtbl.fold
      (fun _ (sub, _) acc -> if List.memq sub acc then acc else sub :: acc)
      t.placements []
  in
  List.iter (fun sub -> World.add_all w sub.Substrate.snap_layers) (List.rev subs);
  World.add w (layer t);
  World.add_all w extra;
  w
