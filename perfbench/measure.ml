(* Wall clock, allocation counters, order statistics, the benchmark's
   own per-layer timers and the metric record it prints. *)

(* Monotonic wall time in nanoseconds; never Sys.time, which is CPU
   time and misses every wait. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let since_us t0 = (now_ns () -. t0) /. 1e3

let since_ms t0 = (now_ns () -. t0) /. 1e6

let since_s t0 = (now_ns () -. t0) /. 1e9

(* [time_s f] — [f]'s result and its wall time in seconds. *)
let time_s f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* --- order statistics --------------------------------------------------- *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array. *)
let rank sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let quantile a p = rank (sorted_copy a) p

(* Median proper: the mean of the two middle values for even counts. *)
let median_a a =
  let s = sorted_copy a and n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median l = median_a (Array.of_list l)

(* [floor runs] — the element-wise minimum of equal-length sample arrays
   from identical repetitions: each sample's cost with the least
   interference from whatever else the machine ran meanwhile. *)
let floor = function
  | [] -> [||]
  | a :: rest ->
    let f = Array.copy a in
    List.iter (Array.iteri (fun i x -> if x < f.(i) then f.(i) <- x)) rest;
    f

(* How many samples lie strictly beyond the nearest-rank [p] quantile —
   the count the percentile rests on. *)
let beyond n p = n - int_of_float (ceil (p *. float_of_int n))

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- per-layer timers ------------------------------------------------------

   The traced run wraps each call the benchmark makes into a layer's
   public function in [span]; with no timers ([None]) the call runs
   bare. Timers only see the benchmark's own calls: a layer reached
   from inside lib/ is part of its caller's time. *)

type acc = { mutable calls : int; mutable ns : float; mutable words : float }

type layers = (string, acc) Hashtbl.t

let layers () : layers = Hashtbl.create 16

let span (tm : layers option) name f =
  match tm with
  | None -> f ()
  | Some tm ->
    let a =
      match Hashtbl.find_opt tm name with
      | Some a -> a
      | None ->
        let a = { calls = 0; ns = 0.; words = 0. } in
        Hashtbl.replace tm name a;
        a
    in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    a.ns <- a.ns +. (now_ns () -. t0);
    a.words <- a.words +. (Gc.minor_words () -. w0);
    a.calls <- a.calls + 1;
    r

let layer_total_us (tm : layers) name =
  match Hashtbl.find_opt tm name with Some a -> a.ns /. 1e3 | None -> 0.

(* Human-readable ledger of a traced pass, sorted by total time. *)
let print_layers title (tm : layers) =
  let rows = Hashtbl.fold (fun k a acc -> (k, a) :: acc) tm [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.ns a.ns) rows in
  Printf.printf "# layer ledger, %s (calls / total ms / us per call / words per call)\n"
    title;
  List.iter
    (fun (k, a) ->
      let n = float_of_int (max 1 a.calls) in
      Printf.printf "#   %-28s %9d %12.3f %12.3f %12.1f\n" k a.calls (a.ns /. 1e6)
        (a.ns /. 1e3 /. n) (a.words /. n))
    rows

(* --- metrics -------------------------------------------------------------- *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_note : string;  (* sample count and the like, printed beside it *)
}

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_note = note }

(* [pct name unit samples p] — the nearest-rank percentile with its
   sample count and the number of samples beyond it. *)
let pct name unit_ samples p =
  let n = Array.length samples in
  metric name unit_ (quantile samples p)
    ~note:(Printf.sprintf "n=%d beyond=%d" n (beyond n p))

let print_table title ms =
  Printf.printf "# %s\n" title;
  List.iter
    (fun m ->
      Printf.printf "#   %-36s %16.6f %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note)
    ms

let json_number v = Printf.sprintf "%.17g" v

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed ms =
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.m_name
             (json_number m.m_value) m.m_unit)
         ms)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed body
