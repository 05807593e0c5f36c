(* What the nine self-gated benches in this directory share: the clock,
   the median, the warm-up + full-major timed loop, the alternating-pair
   protocol, the cloud host -> enclave fixture and the record writer
   with its bound check. Run counts, repeats and bounds are per-bench
   constants.

   The clock is process CPU time. Every workload is deterministic and
   single-threaded, so machine noise only ever adds time: a pass under
   load is a pass, and the fastest of several repeats is the cleanest
   sample. *)

open Lt_crypto
open Lateral
module Json = Lt_obs.Json

(* [time f] — the CPU seconds [f ()] takes; its result is dropped *)
let time f =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (f ()));
  Sys.time () -. t0

(* the element at index [n / 2] of the sorted samples *)
let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length xs / 2)

let us_per_op ~ops t = t *. 1e6 /. float_of_int ops

(* [timed_loop ~warm ~calls issue] — steady state before the clock
   starts: [warm] calls fill the caches, interners and metric groups,
   and a full major collection pays off GC debt from setup that would
   otherwise be collected in slices inside the window. Then the seconds
   [calls] calls take. *)
let timed_loop ~warm ~calls issue =
  for i = 1 to warm do
    issue (-i)
  done;
  Gc.full_major ();
  time (fun () ->
      for i = 1 to calls do
        issue i
      done)

(* [alternate ~runs ~repeats a b] — [a ()] builds configuration a's
   fresh state and returns its timed run, likewise [b ()]. After one
   warm-up run of each, [runs] pairs: within a pair each configuration
   is measured [repeats] times, both built before either runs and then
   run in alternating order, and its fastest run wins. Returns the
   median of [a]'s pair minima, of [b]'s, and of the per-pair ratios
   b / a. *)
let alternate ~runs ~repeats a b =
  ignore (a () ());
  ignore (b () ());
  let pairs =
    List.init runs (fun i ->
        let ta = ref infinity and tb = ref infinity in
        for j = 1 to repeats do
          let run_a = a () in
          let run_b = b () in
          if (i + 1 + j) mod 2 = 0 then begin
            ta := min !ta (run_a ());
            tb := min !tb (run_b ())
          end
          else begin
            tb := min !tb (run_b ());
            ta := min !ta (run_a ())
          end
        done;
        (!ta, !tb))
  in
  ( median (List.map fst pairs),
    median (List.map snd pairs),
    median (List.map (fun (ta, tb) -> tb /. ta) pairs) )

(* [traced f] — [f] under a fresh tracer and metrics registry: steady-state
   recording into a ring that never fills (~6 spans per call), which is
   the deployed configuration *)
let traced f =
  let v, _, _ = Lt_load.Load.instrumented ~trace_capacity:4096 f in
  v

(* -- the layered fleet of the analysis benches ---------------------------- *)

(* [layered ~n i] — name and connections of component [i] in an [n]-wide
   layered topology with long-range chords: every component feeds the
   next one plus two skip links *)
let layered ~n i =
  let name j = Printf.sprintf "c%03d" j in
  ( name i,
    List.filter_map
      (fun j -> if j < n && j <> i then Some (Manifest.conn (name j) "s") else None)
      [ i + 1; i + 7; i + 31 ] )

(* the executable's own name, e.g. [incr_bench], for stderr lines *)
let bench_name = Filename.remove_extension (Filename.basename Sys.executable_name)

(* [delta_samples manifests toggle] — the incremental re-verdict after
   one component flips, applied to live state: [toggle k] is that
   component's manifest at step [k], alternating so every apply is a
   real change. Two warm-up applies, then 10 samples of 10 applies each
   (batched to dodge timer granularity). Returns the deltas applied and
   each sample's seconds per apply. The speed means nothing if the
   answer drifted: exits 2 when the incremental state diverges from a
   from-scratch analysis. *)
let delta_samples manifests toggle =
  let st = ref (Check.create manifests) in
  let step k = st := fst (Check.apply (Delta.Add (toggle k)) !st) in
  step 0;
  step 1;
  let samples = 10 and per_sample = 10 in
  let times =
    List.init samples (fun s ->
        time (fun () ->
            for k = 0 to per_sample - 1 do
              step ((s * per_sample) + k)
            done)
        /. float_of_int per_sample)
  in
  (match Check.divergence !st with
   | None -> ()
   | Some reason ->
     Printf.eprintf "%s: incremental state diverged: %s\n" bench_name reason;
     exit 2);
  (2 + (samples * per_sample), times)

(* -- the cloud host -> enclave fixture ---------------------------------- *)

(* one CA key for every deployment: key generation dominates deployment
   build time and plays no part in the measured call path *)
let cloud_keys =
  lazy
    (let rng = Drbg.create 0xbe9cL in
     (rng, Rsa.generate ~bits:512 rng))

(* a restart budget that never runs out, so the supervisor's recovery
   cycles never exhaust it; the call path does not read it *)
let lavish =
  { Manifest.r_policy = Manifest.On_failure; r_max = 1_000_000; r_window = 256 }

(* [cloud_deployment ()] — the cloud scenario's host -> enclave hop: a
   routed call that crosses a microkernel IPC and an SGX ecall *)
let cloud_deployment () =
  let rng, ca = Lazy.force cloud_keys in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:256 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let substrates = [ ("microkernel", mk); ("sgx", sgx) ] in
  let components =
    [ ( Manifest.v ~name:"host" ~provides:[ "submit" ] ~network_facing:true
          ~connects_to:[ Manifest.conn ~vetted:true "enclave" "ecall" ]
          ~substrate:"microkernel" ~restart:lavish (),
        fun ctx ~service:_ job ->
          match ctx.Deploy.call_out_typed ~target:"enclave" ~service:"ecall" job with
          | Ok r -> r
          | Error e -> failwith (App.render_call_error e) );
      ( Manifest.v ~name:"enclave" ~provides:[ "ecall" ] ~substrate:"sgx"
          ~restart:lavish (),
        fun _ctx ~service:_ job ->
          String.sub (Sha256.hex (Hmac.mac ~key:"bench" job)) 0 8 ) ]
  in
  match Deploy.deploy ~substrates components with
  | Ok d -> d
  | Error e -> failwith e

let cloud_call dep i =
  match
    Deploy.call dep ~caller:None ~target:"host" ~service:"submit"
      (Printf.sprintf "job-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith e

(* -- the record and its bounds ------------------------------------------ *)

type bound = { key : string; value : float; limit : float; at_most : bool }

let at_most key value limit = { key; value; limit; at_most = true }
let at_least key value limit = { key; value; limit; at_most = false }

let holds b = if b.at_most then b.value <= b.limit else b.value >= b.limit
let within bounds = List.for_all holds bounds

(* [report name fields bounds] prints the one-line record
   [{"benchmark":name, fields...}], then exits 1 with one stderr line at
   the first bound that does not hold *)
let report name fields bounds =
  print_endline
    (Json.to_string (Json.Obj (("benchmark", Json.Str name) :: fields)));
  match List.find_opt (fun b -> not (holds b)) bounds with
  | None -> ()
  | Some b ->
    Printf.eprintf "%s: %s %g is %s the %g bound\n" bench_name b.key b.value
      (if b.at_most then "over" else "under")
      b.limit;
    exit 1
