open Lt_crypto

type t = {
  rng : Drbg.t;
  sites : (string * int) list;
  counts : (string, int) Hashtbl.t;
}

let create ~seed sites =
  List.iter
    (fun (site, pct) ->
      if pct < 0 || pct > 100 then
        invalid_arg
          (Printf.sprintf "Fault_point.create: site %S rate %d not in [0,100]"
             site pct))
    sites;
  { rng = Drbg.create (Int64.of_int seed); sites; counts = Hashtbl.create 4 }

let current : t option ref = ref None

let with_plan t f =
  let previous = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := previous) f

let fires site =
  match !current with
  | None -> false
  | Some t ->
    (match List.assoc_opt site t.sites with
     | None | Some 0 -> false
     | Some pct ->
       let hit = Drbg.int t.rng 100 < pct in
       if hit then
         Hashtbl.replace t.counts site
           (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts site));
       hit)

let fired t =
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) t.counts []
  |> List.sort Stdlib.compare
