module Wire = Lt_crypto.Wire

type attacker_model =
  | Remote_software
  | Local_software
  | Physical_memory
  | Physical_code_swap

type properties = {
  substrate_name : string;
  concurrent_components : bool;
  mutually_isolated : bool;
  defends : attacker_model list;
  tcb : (string * int) list;
  shared_cache_with_host : bool;
  progress_guaranteed : bool;
}

type facilities = {
  f_seal : string -> string;
  f_unseal : string -> string option;
  f_store : key:string -> string -> unit;
  f_load : key:string -> string option;
}

type service = facilities -> string -> string

(* adapters stash their per-component state in an extensible-variant
   (exception) value; each adapter defines its own constructor and only
   ever reads back what it put in *)
type component = { c_name : string; c_measurement : string; c_state : exn }

type error =
  | Killed of string
  | Refused of string
  | Dep_crashed of { origin : string; reason : string }
  | Fault of string

type t = {
  properties : properties;
  launch :
    name:string -> code:string -> services:(string * service) list ->
    (component, string) result;
  invoke : component -> fn:string -> string -> (string, error) result;
  attest :
    component -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result;
  measure : code:string -> string;
  destroy : component -> unit;
  crash : component -> unit;
  is_alive : component -> bool;
  (* Snapshottable layers covering ALL mutable state behind this
     adapter (machine, sim, per-launch tables, dead set); assembled by
     each adapter's [make] and collected by [Deploy.world] *)
  mutable snap_layers : Lt_world.Snapshottable.layer list;
}

let component_name c = c.c_name

let make_component ~name ~measurement ~state =
  { c_name = name; c_measurement = measurement; c_state = state }

let component_measurement c = c.c_measurement

let component_state c = c.c_state

exception Service_failure of string

let fail m = raise (Service_failure m)

(* a behaviour found a dependency dead mid-request; carries the true
   origin so routers blame the crashed component, not the caller that
   tripped over it *)
exception Dependency_crashed of { origin : string; reason : string }

let dep_crashed ~origin reason = raise (Dependency_crashed { origin; reason })

let error_of_exn = function
  | Service_failure m -> Refused m
  | Dependency_crashed { origin; reason } -> Dep_crashed { origin; reason }
  | exn -> Fault (Printexc.to_string exn)

let render_error = function
  | Killed name -> Printf.sprintf "component %s crashed (killed)" name
  | Refused m -> "service failure: " ^ m
  | Dep_crashed { origin; reason } ->
    Printf.sprintf "dependency crashed: %s: %s" origin reason
  | Fault m -> m

let mark_span r =
  (match r with
   | Error e -> Lt_obs.Trace.fail_span (render_error e)
   | Ok _ -> ());
  r

(* the reply codec: a tag field, then the payload fields of its case *)
let encode_error = function
  | Killed name -> Wire.encode [ "killed"; name ]
  | Refused m -> Wire.encode [ "refused"; m ]
  | Dep_crashed { origin; reason } -> Wire.encode [ "dep-crashed"; origin; reason ]
  | Fault m -> Wire.encode [ "fault"; m ]

let reply bytes =
  match Wire.decode bytes with
  | Some [ "ok"; out ] -> Ok out
  | Some [ "killed"; name ] -> Error (Killed name)
  | Some [ "refused"; m ] -> Error (Refused m)
  | Some [ "dep-crashed"; origin; reason ] -> Error (Dep_crashed { origin; reason })
  | Some [ "fault"; m ] -> Error (Fault m)
  | _ -> Error (Fault "malformed reply")

let request ~fn arg = Wire.encode [ fn; arg ]

let answer service facilities arg =
  match service facilities arg with
  | out -> Wire.encode [ "ok"; out ]
  | exception exn -> encode_error (error_of_exn exn)

let serve services facilities bytes =
  match Wire.decode bytes with
  | Some [ fn; arg ] ->
    (match List.assoc_opt fn services with
     | Some service -> answer service facilities arg
     | None -> encode_error (Fault (Printf.sprintf "no entry point %S" fn)))
  | _ -> encode_error (Fault "malformed request")

let lifecycle ?dead ?(teardown = fun _ -> ()) () =
  let dead : (string, unit) Hashtbl.t =
    match dead with Some d -> d | None -> Hashtbl.create 4
  in
  let crash c =
    if not (Hashtbl.mem dead c.c_name) then begin
      Hashtbl.replace dead c.c_name ();
      teardown c
    end
  in
  let is_alive c = not (Hashtbl.mem dead c.c_name) in
  let revive name = Hashtbl.remove dead name in
  (crash, is_alive, revive)

(* Shared snapshot plumbing for adapter authors: every adapter owns a
   dead-set, and most keep per-launch KV tables in a name-keyed
   registry.  [extra_take]/[extra_digest] cover whatever else the
   adapter holds (invoke counters, facilities caches, tile cursors). *)
module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

let adapter_layer ~name ~dead ~tables ?(extra_take = [])
    ?(extra_digest = fun d -> d) () =
  Snap.make ~name
    ~take:(fun () ->
      Snap.save_refs
        ([ (fun () -> Snap.save_hashtbl dead);
           (fun () -> Snap.save_hashtbl_registry tables) ]
         @ extra_take))
    ~digest:(fun () ->
      let d =
        List.fold_left
          (fun d (k, ()) -> D64.string d k)
          (D64.int D64.basis (Hashtbl.length dead))
          (Snap.sorted_bindings dead)
      in
      let d =
        List.fold_left
          (fun d (n, tbl) ->
            Snap.digest_hashtbl
              ~key:(fun k -> k)
              ~value:(fun v -> v)
              tbl (D64.string d n))
          (D64.int d (Hashtbl.length tables))
          (Snap.sorted_bindings tables)
      in
      extra_digest d)

let pp_attacker_model fmt m =
  Format.pp_print_string fmt
    (match m with
     | Remote_software -> "remote-software"
     | Local_software -> "local-software"
     | Physical_memory -> "physical-memory"
     | Physical_code_swap -> "physical-code-swap")

let pp_properties fmt p =
  Format.fprintf fmt
    "%s: concurrent=%b mutual-isolation=%b cache-shared=%b progress=%b tcb=%d defends=[%a]"
    p.substrate_name p.concurrent_components p.mutually_isolated
    p.shared_cache_with_host p.progress_guaranteed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 p.tcb)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_attacker_model)
    p.defends
