open Lateral
module Drbg = Lt_crypto.Drbg

let name = "substrate"

(* ---------------------------------------------------------------- *)
(* the fixed topology under test                                     *)
(* ---------------------------------------------------------------- *)

(* gate (network-facing) -> worker -> vault; behaviours are pure
   functions of the request so reply bytes must agree across
   substrates byte-for-byte. The vault refuses "poison" through the
   typed failure channel — the differential proves every adapter
   carries Service_failure intact through its own invocation hop
   (ecall, SMC, IPC, mailbox, PAL session). *)

let rev s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

let topology substrate =
  [ ( Manifest.v ~name:"gate" ~provides:[ "relay" ] ~network_facing:true
        ~connects_to:[ Manifest.conn "worker" "work" ]
        ~substrate (),
      fun _ctx ~service:_ req -> "gate:" ^ req );
    ( Manifest.v ~name:"worker" ~provides:[ "work" ]
        ~connects_to:[ Manifest.conn "vault" "seal" ]
        ~substrate (),
      fun _ctx ~service:_ req -> "work:" ^ rev req );
    ( Manifest.v ~name:"vault" ~provides:[ "seal" ] ~substrate (),
      fun _ctx ~service:_ req ->
        if req = "poison" then Substrate.fail "vault refuses poison"
        else "sealed:" ^ req ) ]

(* ---------------------------------------------------------------- *)
(* the substrate pool                                                *)
(* ---------------------------------------------------------------- *)

(* constructed from a constant seed so every [check] call sees
   identical substrate instances; the op payload is the only variable *)
let pool () =
  let open Lt_crypto in
  let rng = Drbg.create 0x1a7e4a1L in
  let ca = Rsa.generate ~bits:512 rng in
  let acc = ref [] in
  let m1 = Lt_hw.Machine.create ~dram_pages:128 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  acc := ("microkernel", mk) :: !acc;
  let m2 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  acc := ("sgx", sgx) :: !acc;
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m3.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  (match
     Substrate_trustzone.make m3 ~vendor:ca.Rsa.pub
       ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz-os" "tz-os-v1")
       ~device_id:"dev" ~device_key_name:"devkey" ~secure_pages:8
   with
   | Ok (tz, _) -> acc := ("trustzone", tz) :: !acc
   | Error _ -> ());
  let m4 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m4 rng ~device_id:"dev" ~private_pages:8 in
  acc := ("sep", sep) :: !acc;
  let cheri, _, _ = Substrate_cheri.make rng ~size:(1 lsl 17) () in
  acc := ("cheri", cheri) :: !acc;
  let m3s, _ = Substrate_m3.make rng ~ca_name:"m3-mfg" ~ca_key:ca ~tiles:8 () in
  acc := ("m3", m3s) :: !acc;
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"1" in
  acc := ("flicker", Substrate_flicker.make tpm ()) :: !acc;
  List.rev !acc

(* ---------------------------------------------------------------- *)
(* operations                                                        *)
(* ---------------------------------------------------------------- *)

type op =
  | Call of { caller : string option; target : string; service : string; payload : string }
  | Crash of string
  | Revive of string
  | Storm of { pages : int; components : int }

let parse_op line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "call"; caller; target; service; payload ] ->
    let caller = if caller = "-" then None else Some caller in
    Ok (Call { caller; target; service; payload })
  | [ "crash"; c ] -> Ok (Crash c)
  | [ "revive"; c ] -> Ok (Revive c)
  | [ "storm"; pages; components ] ->
    (match (int_of_string_opt pages, int_of_string_opt components) with
     | Some pages, Some components when pages > 0 && components > 0 ->
       Ok (Storm { pages; components })
     | _ -> Error (Printf.sprintf "bad storm %S" line))
  | [ "" ] -> Error "empty line"
  | _ -> Error (Printf.sprintf "unparseable op %S" line)

let render_op = function
  | Call { caller; target; service; payload } ->
    Printf.sprintf "call %s %s %s %s"
      (Option.value caller ~default:"-") target service payload
  | Crash c -> Printf.sprintf "crash %s" c
  | Revive c -> Printf.sprintf "revive %s" c
  | Storm { pages; components } -> Printf.sprintf "storm %d %d" pages components

(* ---------------------------------------------------------------- *)
(* the reference model                                               *)
(* ---------------------------------------------------------------- *)

(* what a caller can observe about one call, with crash reasons
   abstracted away (each substrate words its own death differently) *)
type observable =
  | Reply of string
  | Deny
  | No_target
  | No_service
  | Dead
  | Refused of string

let pp_obs = function
  | Reply r -> Printf.sprintf "reply %S" r
  | Deny -> "deny"
  | No_target -> "no-target"
  | No_service -> "no-service"
  | Dead -> "dead"
  | Refused r -> Printf.sprintf "refused %S" r

let components = [ "gate"; "worker"; "vault" ]

let provides = function
  | "gate" -> [ "relay" ]
  | "worker" -> [ "work" ]
  | "vault" -> [ "seal" ]
  | _ -> []

let declared ~caller ~target ~service =
  match (caller, target, service) with
  | "gate", "worker", "work" -> true
  | "worker", "vault", "seal" -> true
  | _ -> false

let behave target service payload =
  match (target, service) with
  | "gate", "relay" -> Reply ("gate:" ^ payload)
  | "worker", "work" -> Reply ("work:" ^ rev payload)
  | "vault", "seal" ->
    if payload = "poison" then Refused "vault refuses poison"
    else Reply ("sealed:" ^ payload)
  | _ -> assert false

(* mirrors the router's decision order: unknown target, then the
   channel check (which fires before the service-existence check, so
   an undeclared pair is a denial even for a bogus service), then
   unknown service, then the target's own state *)
let model_call alive ~caller ~target ~service ~payload =
  if not (List.mem target components) then No_target
  else
    let authorized =
      match caller with
      | None -> target = "gate"  (* only the gate is network-facing *)
      | Some c -> List.mem c components && declared ~caller:c ~target ~service
    in
    if not authorized then Deny
    else if not (List.mem service (provides target)) then No_service
    else if not (List.mem target alive) then Dead
    else behave target service payload

(* ---------------------------------------------------------------- *)
(* running one deployment                                            *)
(* ---------------------------------------------------------------- *)

let classify = function
  | Ok r -> Reply r
  | Error (App.Unknown_component _) -> No_target
  | Error (App.Unknown_service _) -> No_service
  | Error (App.Denied _) -> Deny
  | Error (App.Crashed _) -> Dead
  | Error (App.Failed { reason; _ }) -> Refused reason

(* storms are pure functions of their two integers, so each distinct
   (pages, components) pair boots its throwaway kernel exactly once per
   process; repeats hit the memo *)
let storm_memo : (int * int, (unit, string) result) Hashtbl.t =
  Hashtbl.create 8

let storm_check_uncached ~pages ~components =
  (* frame exhaustion on the microkernel must be a typed launch error;
     satellite fix for the map_memory panic path *)
  let machine = Lt_hw.Machine.create ~dram_pages:pages () in
  let mk, _ =
    Substrate_kernel.make machine (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let specs =
    List.init components (fun i ->
        ( Manifest.v ~name:(Printf.sprintf "comp%d" i) ~provides:[ "noop" ]
            ~substrate:"microkernel" (),
          fun _ctx ~service:_ req -> req ))
  in
  match Deploy.deploy ~substrates:[ ("microkernel", mk) ] specs with
  | exception exn ->
    Error (Printf.sprintf "storm raised %s" (Printexc.to_string exn))
  | Ok _ -> Ok ()
  | Error e ->
    let mentions_frames =
      let needle = "out of physical frames" in
      let n = String.length needle and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = needle || go (i + 1)) in
      go 0
    in
    if mentions_frames then Ok ()
    else Error (Printf.sprintf "storm failed untypedly: %s" e)

let storm_check ~pages ~components =
  match Hashtbl.find_opt storm_memo (pages, components) with
  | Some r -> r
  | None ->
    let r = storm_check_uncached ~pages ~components in
    Hashtbl.replace storm_memo (pages, components) r;
    r

let contains_sub ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Boot every substrate and deployment exactly once, fork the booted
   world, and rewind to the fork before each case: O(dirty) per case
   instead of a full seven-substrate boot.  Equal-seed runs stay
   byte-identical because the restore is exact — the conformance
   double-run diff in the fuzz engine checks precisely that. *)
type env = {
  e_n_subs : int;
  e_deployments : (string * Deploy.t) list;
  e_world : Lt_world.World.t;
  e_pristine : Lt_world.World.snap;
}

let env =
  lazy
    (let subs = pool () in
     let deployments =
       List.filter_map
         (fun (sname, sub) ->
           match Deploy.deploy ~substrates:[ (sname, sub) ] (topology sname) with
           | Ok d -> Some (sname, d)
           | Error _ -> None)
         subs
     in
     let world = Lt_world.World.create () in
     List.iter
       (fun (_, d) ->
         Lt_world.World.add_all world (Lt_world.World.layers (Deploy.world d)))
       deployments;
     { e_n_subs = List.length subs;
       e_deployments = deployments;
       e_world = world;
       e_pristine = Lt_world.World.fork world })

let run_ops ops =
  let { e_n_subs; e_deployments = deployments; e_world; e_pristine } =
    Lazy.force env
  in
  Lt_world.World.restore e_world e_pristine;
  if List.length deployments < e_n_subs then
    Error
      (Printf.sprintf "only %d of %d substrates could host the topology"
         (List.length deployments) e_n_subs)
  else begin
    let alive = ref components in
    let failure = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
    List.iteri
      (fun opi op ->
        if !failure = None then
          match op with
          | Storm { pages; components } ->
            (match storm_check ~pages ~components with
             | Ok () -> ()
             | Error e -> fail "op %d: %s" opi e)
          | Crash c ->
            List.iter
              (fun (sname, d) ->
                match Deploy.crash d c with
                | Ok () | Error _ -> ()
                | exception exn ->
                  fail "op %d: crash %s raised on %s: %s" opi c sname
                    (Printexc.to_string exn))
              deployments;
            if List.mem c components then
              alive := List.filter (fun x -> x <> c) !alive
          | Revive c ->
            List.iter
              (fun (sname, d) ->
                match Deploy.relaunch d c with
                | Ok () | Error _ -> ()
                | exception exn ->
                  fail "op %d: revive %s raised on %s: %s" opi c sname
                    (Printexc.to_string exn))
              deployments;
            if List.mem c components && not (List.mem c !alive) then
              alive := c :: !alive
          | Call { caller; target; service; payload } ->
            let expected = model_call !alive ~caller ~target ~service ~payload in
            List.iter
              (fun (sname, d) ->
                if !failure = None then
                  match Deploy.call_typed d ~caller ~target ~service payload with
                  | exception exn ->
                    fail "op %d (%s) raised on %s: %s" opi (render_op op) sname
                      (Printexc.to_string exn)
                  | result ->
                    let got = classify result in
                    if got <> expected then
                      fail "op %d (%s): %s disagrees with the model: expected %s, got %s"
                        opi (render_op op) sname (pp_obs expected) (pp_obs got);
                    (* a refusal or a crash must never surface as a
                       wrapped exception: the substrate error variant
                       carries the reason verbatim through every hop *)
                    (match result with
                     | Error (App.Failed { reason; _ } | App.Crashed { reason; _ })
                       when contains_sub ~needle:"Failure(" reason ->
                       fail "op %d (%s): %s leaked an exception into its error: %s"
                         opi (render_op op) sname reason
                     | _ -> ()))
              deployments)
      ops;
    match !failure with None -> Ok () | Some what -> Error what
  end

(* ---------------------------------------------------------------- *)
(* engine interface                                                  *)
(* ---------------------------------------------------------------- *)

let check payload =
  let lines =
    String.split_on_char '\n' payload
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      (match parse_op line with
       | Ok op -> parse (op :: acc) rest
       | Error e -> Error e)
  in
  match parse [] lines with
  | Error e -> Error (Printf.sprintf "bad payload: %s" e)
  | Ok ops -> (try run_ops ops with exn ->
      Error (Printf.sprintf "harness raised %s" (Printexc.to_string exn)))

let caller_pool = [| "-"; "gate"; "worker"; "vault"; "ghost" |]

let target_pool = [| "gate"; "worker"; "vault"; "ghost" |]

let service_pool = [| "relay"; "work"; "seal"; "bogus" |]

let payload_pool = [| "hello"; "poison"; "x"; "data42"; "zz9" |]

let pick rng a = a.(Drbg.int rng (Array.length a))

let generate rng _case =
  let n = 2 + Drbg.int rng 10 in
  let comp rng = pick rng [| "gate"; "worker"; "vault" |] in
  let ops =
    List.init n (fun _ ->
        match Drbg.int rng 10 with
        | 0 -> Crash (comp rng)
        | 1 -> Revive (comp rng)
        | 2 when Drbg.int rng 2 = 0 ->
          Storm { pages = 2 + Drbg.int rng 6; components = 4 + Drbg.int rng 4 }
        | _ ->
          let caller = pick rng caller_pool in
          Call
            { caller = (if caller = "-" then None else Some caller);
              target = pick rng target_pool;
              service = pick rng service_pool;
              payload = pick rng payload_pool })
  in
  String.concat "\n" (List.map render_op ops)
