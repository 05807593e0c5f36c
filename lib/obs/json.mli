(** JSON values and the one compact printer every JSON report in the
    repository goes through.

    The repository deliberately has no JSON dependency: reports only
    need objects, lists, strings, numbers, booleans and [null]. The
    printer emits no whitespace and keeps object members in the order
    given, so equal values print to equal bytes. *)

type t =
  | Obj of (string * t) list
  | List of t list
  | Str of string
  | Int of int
  | Float of float  (** printed with three decimals; [null] if not finite *)
  | Bool of bool
  | Null

(** [escape s] — the body of a JSON string literal for [s], without the
    surrounding quotes. The double quote and the backslash are
    backslash-escaped; newline, CR and tab become the two-character
    escapes n, r and t; other bytes below 0x20 become a six-character
    u00XX escape; every other byte (UTF-8 included) passes unchanged. *)
val escape : string -> string

val to_string : t -> string

(** {2 Shorthands} *)

val strs : string list -> t

(** [counts kvs] — an object of integer members, e.g. a counter table. *)
val counts : (string * int) list -> t
