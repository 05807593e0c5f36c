(* Self-timed micro-benchmark of the hunt fuzzing harness: generation
   plus property-check throughput for each engine at a fixed seed, and
   the cost of ddmin shrinking on a representative storage schedule.
   The committed record lives in BENCH_fuzz.json at the repo root
   (refresh with `dune exec bench/fuzz_bench.exe`). Throughput numbers
   are execs (generate + full check) per second. The substrate engine
   used to redeploy the probe app onto all seven substrates per check
   (RSA keygen included, 3.54 execs/s at the seed baseline); it now
   boots once and World.restores the pristine fork per case, and the
   run self-gates (exit 1, through the shared harness) on holding
   >= 100x that baseline. *)

module Drbg = Lt_crypto.Drbg

let throughput ~seed ~warm ~cases generate check =
  for i = 0 to warm - 1 do
    ignore (check (generate (Drbg.create (Int64.of_int (seed + i))) i))
  done;
  let failures = ref 0 in
  let elapsed =
    Harness.time (fun () ->
        for i = 0 to cases - 1 do
          let rng = Drbg.create (Int64.of_int (seed + 1000 + i)) in
          match check (generate rng i) with
          | Ok () -> ()
          | Error _ -> incr failures
        done)
  in
  (float_of_int cases /. elapsed, !failures)

let shrink_cost () =
  (* minimize a 24-op schedule down to the one line the predicate
     needs: the same shape as minimizing a real crash, without
     depending on a live bug *)
  let rng = Drbg.create 0xbe9cL in
  let ops =
    List.init 24 (fun i ->
        if i = 17 then "corrupt 1 469 7"
        else Printf.sprintf "write /a x%d" (Drbg.int rng 1000))
  in
  let payload = String.concat "\n" ops in
  let has_strike p =
    List.exists
      (fun l -> String.length l >= 7 && String.sub l 0 7 = "corrupt")
      (String.split_on_char '\n' p)
  in
  let steps = ref 0 and minimal = ref "" in
  let elapsed =
    Harness.time (fun () ->
        minimal := Lt_fuzz.Shrink.lines ~steps has_strike payload)
  in
  let lines =
    List.length
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' !minimal))
  in
  (!steps, elapsed *. 1e3, lines)

(* fork-per-case must hold >= 100x the 3.54/s redeploy-per-case seed *)
let substrate_floor = 350.0

let () =
  let manifest_eps, mf =
    throughput ~seed:100 ~warm:5 ~cases:400 Lt_fuzz.Manifest_fuzz.generate
      Lt_fuzz.Manifest_fuzz.check
  in
  let storage_eps, sf =
    throughput ~seed:200 ~warm:3 ~cases:150 Lt_fuzz.Storage_fuzz.generate
      Lt_fuzz.Storage_fuzz.check
  in
  let substrate_eps, bf =
    throughput ~seed:300 ~warm:3 ~cases:300 Lt_fuzz.Substrate_fuzz.generate
      Lt_fuzz.Substrate_fuzz.check
  in
  let shrink_steps, shrink_ms, shrink_lines = shrink_cost () in
  Harness.report "hunt-throughput"
    Lt_obs.Json.
      [ ("manifest_execs_per_sec", Float manifest_eps);
        ("storage_execs_per_sec", Float storage_eps);
        ("substrate_execs_per_sec", Float substrate_eps);
        ("substrate_floor_execs_per_sec", Float substrate_floor);
        ("failures", Int (mf + sf + bf)); ("shrink_steps", Int shrink_steps);
        ("shrink_ms", Float shrink_ms); ("shrink_final_lines", Int shrink_lines) ]
    [ Harness.at_least "substrate_execs_per_sec" substrate_eps substrate_floor ]
