type t =
  | Obj of (string * t) list
  | List of t list
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let add_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (escape s);
  Buffer.add_char buf '"'

let rec add buf = function
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_str buf k;
        Buffer.add_char buf ':';
        add buf v)
      members;
    Buffer.add_char buf '}'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      items;
    Buffer.add_char buf ']'
  | Str s -> add_str buf s
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f when Float.is_finite f -> Printf.bprintf buf "%.3f" f
  | Float _ -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"

let to_string v =
  let buf = Buffer.create 1024 in
  add buf v;
  Buffer.contents buf

let strs l = List (List.map (fun s -> Str s) l)

let counts kvs = Obj (List.map (fun (k, n) -> (k, Int n)) kvs)
