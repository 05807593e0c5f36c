(* The control plane: a manifest fleet rendered to text, parsed back and
   given a batch verdict, then a seeded stream of deltas through the
   incremental Check engine. *)

open Lateral
module Drbg = Lt_crypto.Drbg

(* The layered fleet incr_bench and contain_bench use: channels to
   i+1, i+7 and i+31, a SEP island every 100th component, restart
   policies on two thirds, stateful marks every 13th and a
   network-facing entry every 97th. *)
let fleet n =
  List.init n (fun i ->
      let name = Printf.sprintf "c%03d" i in
      let connects =
        List.filter_map
          (fun j ->
            if j < n then Some (Manifest.conn (Printf.sprintf "c%03d" j) "s")
            else None)
          [ i + 1; i + 7; i + 31 ]
      in
      Manifest.v ~name ~provides:[ "s" ] ~connects_to:connects
        ~network_facing:(i mod 97 = 0) ~stateful:(i mod 13 = 0)
        ?restart:
          (if i mod 3 <> 0 then
             Some (Manifest.default_restart Manifest.On_failure)
           else None)
        ~substrate:(if i mod 100 = 50 then "sep" else "microkernel")
        ())

(* Delta classes, in the order the per-layer metrics list them. *)
let classes = [ "vuln"; "restart"; "vet"; "unvet"; "connect"; "disconnect" ]

(* Operation kinds, cycled, one of each per cycle. A kind that does not
   apply to a component (no channel to vet, no later component to
   connect to) falls back to a vulnerability toggle. *)
type kind = Vuln | Restart | Vet | Channel

let cycle = [| Vuln; Restart; Vet; Channel |]

(* A seeded delta stream. Each operation is a change and its inverse,
   so the fleet never wanders from its generated shape. Components are
   visited in a golden-ratio stride, so consecutive operations spread
   over the whole fleet; each sweep of the fleet shifts every
   component's kind by one, so [period] operations give every component
   every slot of the kind cycle once. The seed sets where the stride and
   the cycle start; a stream of whole periods holds the same operations
   whatever the seed. *)
type stream = {
  cur : Manifest.t array;  (* mirror of the fleet the engine holds *)
  index : (string, int) Hashtbl.t;
  offset : int;
  stride : int;
  kind_offset : int;
  mutable op : int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let stream rng manifests =
  let cur = Array.of_list manifests in
  let n = Array.length cur in
  let index = Hashtbl.create n in
  Array.iteri (fun i m -> Hashtbl.replace index m.Manifest.name i) cur;
  let stride = ref (max 1 (int_of_float (0.618 *. float_of_int n))) in
  while gcd !stride n <> 1 do incr stride done;
  { cur; index; offset = Drbg.int rng n; stride = !stride;
    kind_offset = Drbg.int rng (Array.length cycle); op = 0 }

let period n = n * Array.length cycle

let toggle_restart (m : Manifest.t) =
  match m.Manifest.restart with
  | None -> Some (Manifest.default_restart Manifest.On_failure)
  | Some _ -> None

let without_conn target service (m : Manifest.t) =
  List.filter
    (fun c -> not (c.Manifest.target = target && c.Manifest.service = service))
    m.Manifest.connects_to

(* [next s] — the next operation: two (class, delta, fleet-after)
   steps, a change and its inverse. *)
let next s =
  let n = Array.length s.cur in
  let sweep = s.op / n and r = s.op mod n in
  let i = (s.offset + (r * s.stride)) mod n in
  let kind = cycle.((s.kind_offset + r + sweep) mod Array.length cycle) in
  (* which channel or target, when there is a choice: the next one each
     period *)
  let pick l = List.nth l (s.op / period n mod List.length l) in
  s.op <- s.op + 1;
  let m = s.cur.(i) in
  let name = m.Manifest.name in
  let toggle_vuln () =
    let m' = { m with Manifest.vulnerable = not m.Manifest.vulnerable } in
    [ ("vuln", Delta.Add m', m'); ("vuln", Delta.Add m, m) ]
  in
  let candidates =
    List.filter_map
      (fun d ->
        if i + d < n then
          match s.cur.(i + d).Manifest.provides with
          | svc :: _ -> Some (s.cur.(i + d).Manifest.name, svc)
          | [] -> None
        else None)
      (if n > 31 then [ 1; 7; 13; 31 ] else [ 1; 2; 3 ])
  in
  match (kind, m.Manifest.connects_to, candidates) with
  | Restart, _, _ ->
    let m' = { m with Manifest.restart = toggle_restart m } in
    [ ("restart", Delta.Add m', m'); ("restart", Delta.Add m, m) ]
  | Vet, (_ :: _ as conns), _ ->
    (* sorted: a reconnect moves a channel to the end of the list *)
    let c = pick (List.sort compare conns) in
    let set v =
      { m with
        Manifest.connects_to =
          List.map
            (fun c' -> if c' == c then { c with Manifest.vetted = v } else c')
            conns }
    in
    let step v =
      ( (if v then "vet" else "unvet"),
        Delta.Set_vetted
          { caller = name; target = c.Manifest.target;
            service = c.Manifest.service; vetted = v },
        set v )
    in
    [ step (not c.Manifest.vetted); step c.Manifest.vetted ]
  | Channel, conns, _ :: _ ->
    let target, service = pick candidates in
    let existing =
      List.find_opt
        (fun c -> c.Manifest.target = target && c.Manifest.service = service)
        conns
    in
    let dropped = { m with Manifest.connects_to = without_conn target service m } in
    let disconnect = Delta.Disconnect { caller = name; target; service } in
    (match existing with
     | Some c ->
       let back = { m with Manifest.connects_to = dropped.Manifest.connects_to @ [ c ] } in
       [ ("disconnect", disconnect, dropped);
         ("connect", Delta.Connect { caller = name; conn = c }, back) ]
     | None ->
       let c = Manifest.conn target service in
       let added = { m with Manifest.connects_to = conns @ [ c ] } in
       [ ("connect", Delta.Connect { caller = name; conn = c }, added);
         ("disconnect", disconnect, dropped) ])
  | _ -> toggle_vuln ()

let commit s (m : Manifest.t) =
  s.cur.(Hashtbl.find s.index m.Manifest.name) <- m

(* --- one control-plane run ------------------------------------------------ *)

type run = {
  verdict_ms : float array;  (* parse + Check.create, one per verdict *)
  delta_ms : float array;    (* Check.apply, in stream order *)
  delta_class : string array;
}

exception Check_failed of string

let parse text =
  match Manifest_file.parse text with
  | Ok ms -> ms
  | Error e -> raise (Check_failed ("manifest parse: " ^ e))

(* [run ?tm ~rng ~text ~expect ~verdicts ~deltas ()] — [verdicts] batch
   verdicts of [text], then whole delta operations on the last verdict's
   state until [deltas] deltas are applied. Fails the check when the text
   does not parse back to [expect] or when the incremental state at the
   end is not what a from-scratch batch analysis of the same fleet
   gives. *)
let run ?tm ~rng ~text ~expect ~verdicts ~deltas () =
  let vs = Array.make verdicts 0. in
  let state = ref None in
  for v = 0 to verdicts - 1 do
    state := None;
    let t0 = Measure.now_ns () in
    let ms = Measure.span tm "manifest_file.parse" (fun () -> parse text) in
    let st = Measure.span tm "check.create" (fun () -> Check.create ms) in
    vs.(v) <- Measure.since_ms t0;
    if ms <> expect then
      raise (Check_failed "manifest text does not round-trip to the fleet");
    state := Some st
  done;
  let st = ref (Option.get !state) in
  let s = stream rng expect in
  let timed = ref [] and count = ref 0 in
  while !count < deltas do
    List.iter
      (fun (cls, d, m') ->
        let t0 = Measure.now_ns () in
        let st', _ =
          Measure.span tm ("check.apply." ^ cls) (fun () -> Check.apply d !st)
        in
        timed := (cls, Measure.since_ms t0) :: !timed;
        incr count;
        st := st';
        commit s m')
      (next s)
  done;
  (match Check.divergence !st with
   | None -> ()
   | Some reason -> raise (Check_failed ("Check.divergence: " ^ reason)));
  let timed = List.rev !timed in
  { verdict_ms = vs;
    delta_ms = Array.of_list (List.map snd timed);
    delta_class = Array.of_list (List.map fst timed) }
