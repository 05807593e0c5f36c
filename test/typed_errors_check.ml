(* Grep gate for the isolation interface's typed error channel: the
   router (lib/core/deploy.ml) and the substrate interface and adapters
   (lib/core/substrate*.ml) must never turn an error into an exception
   text ([Printexc.to_string]) or a string back into an exception
   ([failwith]). The one exception text the interface produces is the
   [Fault] message of a foreign exception, in [Substrate.error_of_exn],
   so substrate.ml may name [Printexc.to_string] once. Constructor
   preconditions ([invalid_arg "...: foreign component"]) are not
   matched. Run by `dune build @typederrors`, which @runtest depends
   on. Exit 1 with one line per occurrence. *)

let forbidden = [ "failwith"; "Printexc.to_string" ]

(* occurrences a file may keep: (file basename, token, count) *)
let allowed = [ ("substrate.ml", "Printexc.to_string", 1) ]

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* [token] occurs in [line] at [i] as a whole identifier path *)
let occurs_at line token i =
  let n = String.length token and len = String.length line in
  i + n <= len
  && String.sub line i n = token
  && (i = 0 || not (is_ident line.[i - 1] || line.[i - 1] = '.'))
  && (i + n = len || not (is_ident line.[i + n]))

let hits path token =
  let ic = open_in path in
  let found = ref [] and lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       for i = 0 to String.length line - 1 do
         if occurs_at line token i then found := !lineno :: !found
       done
     done
   with End_of_file -> close_in ic);
  List.rev !found

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let problems = ref [] in
  List.iter
    (fun path ->
      List.iter
        (fun token ->
          let lines = hits path token in
          let budget =
            List.fold_left
              (fun acc (f, t, n) ->
                if f = Filename.basename path && t = token then n else acc)
              0 allowed
          in
          if List.length lines > budget then
            List.iter
              (fun l ->
                problems :=
                  Printf.sprintf "%s:%d: %s on the typed error path" path l token
                  :: !problems)
              lines)
        forbidden)
    files;
  match List.rev !problems with
  | [] ->
    Printf.printf "typederrors: %d files checked\n" (List.length files)
  | ps ->
    List.iter (fun p -> Printf.eprintf "typederrors: %s\n" p) ps;
    exit 1
