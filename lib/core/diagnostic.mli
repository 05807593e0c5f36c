(** Structured lint diagnostics.

    Every finding of the {!Lint} engine is one of these: a stable rule
    id, a severity CI can gate on, the component (and optionally
    service) it anchors to, a human message and a fix hint. Rendering to
    text and JSON lives here so every consumer (CLI, golden tests,
    future batch runners) formats identically. *)

type severity = Error | Warning | Info

(** Source position of the finding: the manifest file and the line of
    the [component] directive the diagnostic anchors to. *)
type location = { file : string; line : int }

type t = {
  rule_id : string;     (** stable, e.g. ["L005-confused-deputy"] *)
  severity : severity;
  component : string;   (** the component the finding anchors to *)
  service : string option;
  message : string;
  fix_hint : string;
  loc : location option;
}

val v :
  rule_id:string -> severity:severity -> component:string ->
  ?service:string -> ?loc:location -> message:string -> fix_hint:string ->
  unit -> t

(** [with_loc loc t] — attach a source position after the fact; rules
    stay position-free and the engine localises. *)
val with_loc : location -> t -> t

(** [Error] < [Warning] < [Info]; 0, 1, 2. *)
val severity_rank : severity -> int

val severity_to_string : severity -> string

(** Worst severity first, then rule id, component, service, message,
    location — total and deterministic, so reports are diffable. *)
val compare : t -> t -> int

(** ["component.service"], or just ["component"] when no service. *)
val subject : t -> string

(** Two-line human rendering: finding (prefixed [file:line:] when
    located), then indented fix hint. *)
val to_text : t -> string

(** One JSON object; [service] and [location] become [null] when
    absent. *)
val to_json : t -> Lt_obs.Json.t

val pp : Format.formatter -> t -> unit
