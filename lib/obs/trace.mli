(** Causal tracing across the runtime stack.

    A {!t} is a tracer: a bounded ring buffer of {!span}s plus a logical
    clock in {e simulated ticks}. Instrumented code (the deployment
    router, the substrate adapters, the microkernel IPC path, the
    network gateway) reports through the ambient tracer scoped with
    {!with_tracer}; when none is installed every instrumentation point costs
    one reference read, so tracing can stay compiled into hot paths.

    Spans are causally linked: {!with_span} nests, so a span opened
    while another is running records that span as its parent — the
    ecall a routed component call turns into is a child of the call,
    which is a child of the request that triggered it. Spans are
    recorded on {e completion}; because children complete before their
    parents, dropping the oldest records when the ring is full can
    never orphan a surviving span (its parent was recorded later).

    Exports: Chrome trace-event JSON (open in [chrome://tracing] or
    Perfetto) and an indented text tree. Ticks are logical — one per
    span boundary or event, plus whatever {!advance} burns — which
    makes identical runs produce byte-identical exports. *)

type span = {
  sp_trace : int;          (** trace (request) the span belongs to *)
  sp_id : int;             (** unique, increasing in creation order *)
  sp_parent : int option;  (** creating span, [None] for roots *)
  sp_kind : string;        (** "request", "call", "invoke", "ecall", "smc", "ipc", ... *)
  sp_name : string;        (** e.g. [component.service] or an endpoint *)
  sp_attrs : (string * string) list;
  sp_start : int;          (** ticks *)
  sp_end : int;
  sp_status : string;      (** "ok" or a failure detail *)
}

type t

(** [create ?capacity ()] — ring buffer holding at most [capacity]
    completed spans (default 65536, min 1). *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** {2 Ambient tracer} *)

(** [enabled ()] — whether a tracer is installed; allocation-free, for
    fast paths that branch on tracing without boxing an option. *)
val enabled : unit -> bool

(** [with_tracer t f] installs [t] for the extent of [f], restoring the
    previous tracer afterwards (also on exceptions). *)
val with_tracer : t -> (unit -> 'a) -> 'a

(** {2 Interning}

    The ring retains span names and attribute lists, so hot call sites
    should not rebuild them per call. Both caches are global and bounded
    by the set of distinct pairs ever requested. *)

(** [span_name comp svc] — the interned ["comp.svc"]. *)
val span_name : string -> string -> string

(** [attr k v] — the interned singleton [[ (k, v) ]]. *)
val attr : string -> string -> (string * string) list

(** {2 Recording (no-ops without an installed tracer)} *)

(** [set_trace id] — trace id given to subsequently opened {e root}
    spans; nested spans inherit their parent's. The load engine sets
    this to the request number. *)
val set_trace : int -> unit

(** [advance n] burns [n] logical ticks (fault-injection delay). *)
val advance : int -> unit

(** [ambient_now ()] — the installed tracer's clock, 0 when none is
    installed. Deadlines and restart windows measure against this, so
    resilience decisions are as deterministic as the traces. *)
val ambient_now : unit -> int

(** [with_span ?attrs ~kind ~name f] runs [f] inside a new span. The
    span's status is "ok" unless {!fail_span} was called or [f] raised
    (the exception is recorded and re-raised). Completion also feeds the
    ambient {!Metrics} registry: a [spans/<kind>] counter, a
    [<kind>/<name>] latency sample, and a [substrate/<name>] latency
    sample when a ["substrate"] attribute is present. *)
val with_span :
  ?attrs:(string * string) list -> kind:string -> name:string ->
  (unit -> 'a) -> 'a

(** [fail_span detail] marks the innermost open span as failed. *)
val fail_span : string -> unit

(** [event ?attrs ?iattr ~kind ~name ()] records an instantaneous span
    (one tick, same causal linking). [iattr] is one integer attribute
    stored unboxed in the ring — per-message payloads like an IPC badge
    cost no allocation and surface in {!span.sp_attrs} (last, rendered
    in decimal) only when the ring is read. *)
val event :
  ?attrs:(string * string) list -> ?iattr:string * int -> kind:string ->
  name:string -> unit -> unit

(** {2 Reading and exporting} *)

val now : t -> int

val spans : t -> span list
(** surviving spans, oldest-recorded first *)

val recorded : t -> int
(** total spans ever completed, including dropped ones *)

val dropped : t -> int

(** Chrome trace-event JSON: an array of "X" (complete) events, [ts]
    and [dur] in ticks (rendered as microseconds by viewers), [tid] =
    trace id, span/parent ids under [args]. Deterministic: sorted by
    start tick, then span id. *)
val export_json : t -> string

(** Indented per-trace text tree. *)
val export_text : t -> string
