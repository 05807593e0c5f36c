(** Seeded, deterministic fault points for chaos testing.

    A {!t} is an armed fault plan: a set of named sites, each with a
    firing probability, drawn from one seeded DRBG. Instrumented code
    (the substrate adapters) asks {!fires} at its fault sites; with no
    plan installed the call is a single reference read and always
    answers [false], so the hooks stay compiled into production paths.

    Determinism: the single-threaded simulation consults sites in a
    fixed order for a fixed workload, so equal seeds produce identical
    kill schedules — the same discipline as the load engine's fault
    injection. *)

type t

(** [create ~seed sites] arms nothing yet; [sites] maps a site name
    (e.g. ["microkernel/kill-mid-ipc"]) to a firing percentage in
    [0, 100]. Unknown sites never fire. *)
val create : seed:int -> (string * int) list -> t

(** {2 Ambient plan} *)

(** [with_plan t f] installs [t] for the extent of [f], restoring the
    previous plan afterwards (also on exceptions). *)
val with_plan : t -> (unit -> 'a) -> 'a

(** {2 Consulting (no-op without an installed plan)} *)

(** [fires site] — true when the armed plan rolls under [site]'s
    percentage. Each call advances the plan's DRBG only when the site
    is armed with a non-zero rate. *)
val fires : string -> bool

(** {2 Reading} *)

(** [fired t] — how often each site actually fired, sorted by site. *)
val fired : t -> (string * int) list
