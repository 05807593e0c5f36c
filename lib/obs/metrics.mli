(** Runtime metrics: counters and log-scale latency histograms.

    A {!t} is a metrics registry. Instrumented code reports through the
    ambient registry scoped with {!with_metrics}; when none is
    installed every reporting call is a single reference read — cheap enough to leave compiled into hot
    paths permanently.

    Latencies are {e simulated ticks} (see {!Trace}): histograms use
    power-of-two buckets, so a quantile estimate is a bucket interval
    [(lo, hi)] guaranteed to contain the exact order statistic. All
    output is sorted by key, so renders are deterministic. *)

type t

val create : unit -> t

(** {2 Ambient registry} *)

(** [with_metrics t f] installs [t] for the extent of [f] and restores
    the previous registry afterwards (also on exceptions). *)
val with_metrics : t -> (unit -> 'a) -> 'a

(** {2 Reporting (no-ops without an installed registry)} *)

(** [incr ?by key] bumps the counter [key] (default [by = 1]). *)
val incr : ?by:int -> string -> unit

(** [observe ~key ticks] adds one latency sample to the histogram
    [key]. Negative samples are clamped to 0. *)
val observe : key:string -> int -> unit

(** Hot-path variants used by {!Trace} on every span completion: the
    counter / histogram is named ["<group>/<name>"], but the key string
    is built once and cached under the [(group, name)] pair, so
    steady-state reporting allocates no key. *)

val incr_grouped : group:string -> string -> unit

(** [observe_span ~kind ~name ~attrs ticks] — the whole per-span feed in
    one registry resolution: bumps the [spans/<kind>] counter, adds
    [ticks] to the [<kind>/<name>] histogram, and, when [attrs] carries
    a ["substrate"] tag, to the [substrate/<s>] histogram too. *)
val observe_span :
  kind:string -> name:string -> attrs:(string * string) list -> int -> unit

(** {2 Reading} *)

val counters : t -> (string * int) list
(** sorted by key *)

type summary = {
  s_count : int;
  s_sum : int;
  s_max : int;
  s_p50 : int;  (** bucket upper bound containing the true p50 *)
  s_p95 : int;
  s_p99 : int;
}

val summaries : t -> (string * summary) list
(** sorted by key *)

(** [quantile_bounds t key q] — the inclusive interval [(lo, hi)] of the
    bucket holding the [q]-quantile (rank [ceil (q * count)]) of the
    samples observed under [key]; [hi] is additionally clamped to the
    exact maximum. [None] when [key] has no samples or [q] is outside
    (0, 1]. *)
val quantile_bounds : t -> string -> float -> (int * int) option

(** {2 Rendering} *)

(** [{"count":..,"sum":..,"p50":..,"p95":..,"p99":..,"max":..}] — one
    histogram as it appears in the driver reports. *)
val summary_json : summary -> Json.t
