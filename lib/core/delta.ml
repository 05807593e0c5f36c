type t =
  | Add of Manifest.t
  | Remove of string
  | Connect of { caller : string; conn : Manifest.connection }
  | Disconnect of { caller : string; target : string; service : string }
  | Set_vetted of {
      caller : string;
      target : string;
      service : string;
      vetted : bool;
    }

let apply d manifests =
  match d with
  | Add m ->
    let name = m.Manifest.name in
    if List.exists (fun x -> x.Manifest.name = name) manifests then begin
      (* upsert in place: the first occurrence becomes the new
         definition, later duplicates are dropped *)
      let replaced = ref false in
      List.filter_map
        (fun x ->
          if x.Manifest.name <> name then Some x
          else if !replaced then None
          else begin
            replaced := true;
            Some m
          end)
        manifests
    end
    else manifests @ [ m ]
  | Remove name -> List.filter (fun x -> x.Manifest.name <> name) manifests
  | Connect { caller; conn } ->
    List.map
      (fun x ->
        if x.Manifest.name <> caller then x
        else
          { x with
            Manifest.connects_to =
              List.filter
                (fun c ->
                  not
                    (c.Manifest.target = conn.Manifest.target
                    && c.Manifest.service = conn.Manifest.service))
                x.Manifest.connects_to
              @ [ conn ] })
      manifests
  | Disconnect { caller; target; service } ->
    List.map
      (fun x ->
        if x.Manifest.name <> caller then x
        else
          { x with
            Manifest.connects_to =
              List.filter
                (fun c ->
                  not (c.Manifest.target = target && c.Manifest.service = service))
                x.Manifest.connects_to })
      manifests
  | Set_vetted { caller; target; service; vetted } ->
    List.map
      (fun x ->
        if x.Manifest.name <> caller then x
        else
          { x with
            Manifest.connects_to =
              List.map
                (fun c ->
                  if c.Manifest.target = target && c.Manifest.service = service
                  then { c with Manifest.vetted }
                  else c)
                x.Manifest.connects_to })
      manifests

let describe = function
  | Add m -> "add " ^ m.Manifest.name
  | Remove name -> "remove " ^ name
  | Connect { caller; conn } ->
    Printf.sprintf "connect%s %s -> %s.%s"
      (if conn.Manifest.vetted then "-vetted" else "")
      caller conn.Manifest.target conn.Manifest.service
  | Disconnect { caller; target; service } ->
    Printf.sprintf "disconnect %s -> %s.%s" caller target service
  | Set_vetted { caller; target; service; vetted } ->
    Printf.sprintf "%s %s -> %s.%s" (if vetted then "vet" else "unvet") caller
      target service

(* --- the script format ------------------------------------------------------ *)

let keywords =
  [ "add"; "update"; "remove"; "connect"; "connect-vetted"; "disconnect";
    "vet"; "unvet" ]

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line
  |> String.map (fun c -> if c = '\t' then ' ' else c)
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

type parse_error = { pe_line : int; pe_msg : string }

let parse_conn str =
  match String.index_opt str '.' with
  | None -> Error (Printf.sprintf "expected TARGET.SERVICE, got %S" str)
  | Some i ->
    let target = String.sub str 0 i in
    let service = String.sub str (i + 1) (String.length str - i - 1) in
    if target = "" || service = "" then
      Error (Printf.sprintf "expected TARGET.SERVICE, got %S" str)
    else Ok (target, service)

(* the manifest parser reports positions relative to the block it was
   handed; rebase "line K: msg" onto the script's own numbering *)
let rebase_block_error ~block_start e =
  match String.index_opt e ':' with
  | Some i when i > 5 && String.sub e 0 5 = "line " ->
    (match int_of_string_opt (String.sub e 5 (i - 5)) with
     | Some k ->
       Some
         { pe_line = block_start + k;
           pe_msg = String.sub e (i + 2) (String.length e - i - 2) }
     | None -> None)
  | _ -> None

let parse_script_located text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else begin
      match tokens lines.(i) with
      | [] -> go (i + 1) acc
      | kw :: rest ->
        let lineno = i + 1 in
        let err msg = Error { pe_line = lineno; pe_msg = msg } in
        let channel_op what k =
          match rest with
          | [ caller; ts ] ->
            (match parse_conn ts with
             | Error e -> err e
             | Ok (target, service) ->
               if target = caller then
                 err (Printf.sprintf "%s: %s connects to itself" what caller)
               else k caller target service)
          | _ ->
            err (Printf.sprintf "expected: %s CALLER TARGET.SERVICE" what)
        in
        (match kw with
         | "add" | "update" ->
           if rest <> [] then
             err
               (Printf.sprintf
                  "%s takes no arguments; the manifest block follows" kw)
           else begin
             (* the manifest block runs until the next delta keyword *)
             let j = ref (i + 1) in
             while
               !j < n
               && (match tokens lines.(!j) with
                   | t :: _ when List.mem t keywords -> false
                   | _ -> true)
             do
               incr j
             done;
             let block =
               String.concat "\n"
                 (Array.to_list (Array.sub lines (i + 1) (!j - (i + 1))))
             in
             match Manifest_file.parse block with
             | Error e ->
               (match rebase_block_error ~block_start:(i + 1) e with
                | Some pe -> Error pe
                | None ->
                  err (Printf.sprintf "%s block at line %d: %s" kw lineno e))
             | Ok [] -> err (Printf.sprintf "%s: expected a manifest block" kw)
             | Ok ms ->
               go !j (List.rev_append (List.map (fun m -> Add m) ms) acc)
           end
         | "remove" ->
           (match rest with
            | [ name ] -> go (i + 1) (Remove name :: acc)
            | _ -> err "expected: remove NAME")
         | "connect" ->
           channel_op "connect" (fun caller target service ->
               go (i + 1)
                 (Connect
                    { caller;
                      conn = { Manifest.target; service; vetted = false } }
                 :: acc))
         | "connect-vetted" ->
           channel_op "connect-vetted" (fun caller target service ->
               go (i + 1)
                 (Connect
                    { caller;
                      conn = { Manifest.target; service; vetted = true } }
                 :: acc))
         | "disconnect" ->
           channel_op "disconnect" (fun caller target service ->
               go (i + 1) (Disconnect { caller; target; service } :: acc))
         | "vet" ->
           channel_op "vet" (fun caller target service ->
               go (i + 1)
                 (Set_vetted { caller; target; service; vetted = true } :: acc))
         | "unvet" ->
           channel_op "unvet" (fun caller target service ->
               go (i + 1)
                 (Set_vetted { caller; target; service; vetted = false } :: acc))
         | _ ->
           err
             (Printf.sprintf
                "unknown delta %S (expected add, update, remove, connect, \
                 connect-vetted, disconnect, vet, unvet)"
                kw))
    end
  in
  go 0 []

let parse_script text =
  match parse_script_located text with
  | Ok ds -> Ok ds
  | Error { pe_line; pe_msg } ->
    Error (Printf.sprintf "line %d: %s" pe_line pe_msg)

let load_script_located path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error { pe_line = 0; pe_msg = e }
  | text -> parse_script_located text

let to_text deltas =
  String.concat ""
    (List.map
       (function
         | Add m -> "add\n" ^ Manifest_file.to_text [ m ]
         | Remove name -> "remove " ^ name ^ "\n"
         | Connect { caller; conn } ->
           Printf.sprintf "%s %s %s.%s\n"
             (if conn.Manifest.vetted then "connect-vetted" else "connect")
             caller conn.Manifest.target conn.Manifest.service
         | Disconnect { caller; target; service } ->
           Printf.sprintf "disconnect %s %s.%s\n" caller target service
         | Set_vetted { caller; target; service; vetted } ->
           Printf.sprintf "%s %s %s.%s\n"
             (if vetted then "vet" else "unvet")
             caller target service)
       deltas)
