(** Machine-granularity chaos for the fleet.

    {!Lt_resil.Chaos} kills components; this harness kills {e machines}
    and cuts {e networks}, then audits the same property one level up:
    the blast radius of losing a whole host must stay inside what the
    static {!Lateral.Contain} analysis predicted for the components that
    were resident on it, and no component may ever be revived on a host
    that fails attestation policy.

    The built-in scenario is three independent clusters on [N] hosts
    (every host offers microkernel + sgx + sep):

    {ul
    {- [gate → worker] — a network-facing ingress on a commodity-class
       placement calling a TEE-pinned worker, vetted;}
    {- [vault] — a stateful SEP component pinned to the [sep] substrate;}
    {- [audit] — a free-floating microkernel logger.}}

    All three declare [on-failure] restart budgets, so the static
    prediction for losing their host is [Restarted] — which is exactly
    what a successful failover produces.

    Determinism: host-kill instants, partition handling, the request
    mix, candidate order, backoff jitter, tick counts — everything
    derives from [seed]. Equal seeds produce byte-identical reports;
    the [@fleet] CI alias diffs a double run. *)

open Lateral

(** One scheduled partition: cut controller↔[pt_host] when request
    [pt_from] begins, heal when request [pt_heal] begins ([0]: never).
    [pt_asym] cuts only host→controller — commands still arrive, replies
    are lost, so a placement can succeed invisibly and must be fenced
    after the heal. *)
type partition_spec = {
  pt_host : string;
  pt_from : int;
  pt_heal : int;
  pt_asym : bool;
}

type plan = {
  kill_hosts : string list;  (** each killed once, at a seeded instant *)
  partitions : partition_spec list;
}

val no_chaos : plan

type report = {
  fc_hosts : int;
  fc_rogue : string list;
  fc_requests : int;
  fc_seed : int;
  fc_ok : int;
  fc_failed_excused : int;
      (** failed while the target's cluster was on a killed, partitioned
          or failing-over host — the expected cost of the injected fault *)
  fc_failed_unexcused : int;  (** containment violations *)
  fc_violation_detail : (int * string) list;
  fc_kills : (int * string) list;  (** request instant, host *)
  fc_partition_events : (int * string * string) list;
      (** request instant, host, ["cut"] / ["cut-asym"] / ["heal"] *)
  fc_epochs : (string * int) list;
  fc_attests : (string * int) list;
  fc_attest_failures : int;
  fc_rogue_placements : int;  (** must be 0 *)
  fc_fenced : int;
  fc_placements : (string * string) list;  (** final cluster → host, sorted *)
  fc_failovers : (string * string) list;   (** chronological *)
  fc_recovery_ticks : int list;
      (** per completed failover — what BENCH_fleet gates its median on *)
  fc_unplaced : string list;
  fc_observed : (string * Contain.impact) list;
      (** dynamic blast radius: worst observed impact per component *)
  fc_radius_escapes : (string * Contain.impact * Contain.impact option) list;
      (** component, observed impact, statically allowed impact
          ([None]: untouched) — any entry means observed ⊄ predicted *)
  fc_unroutable : int;  (** packets sent into a void mailbox *)
  fc_counters : (string * int) list;
  fc_span_ticks : int;
}

(** No unexcused failures, no rogue placements, observed ⊆ static. *)
val contained : report -> bool

(** The built-in scenario's components (manifests + behaviours), for
    tests and the CLI. *)
val scenario_components : unit -> (Manifest.t * Deploy.behaviour) list

(** {2 Reproducers}

    A minimized fleet schedule as a small text file
    ([test/corpus/*.repro]), replayed by [lateral fleet --replay]. *)

type repro = {
  rp_hosts : int;
  rp_rogue : string list;
  rp_requests : int;
  rp_seed : int;
  rp_plan : plan;
}

val render_repro : repro -> string

(** [parse_repro text] — inverse of {!render_repro}; tolerates comments
    and blank lines. *)
val parse_repro : string -> (repro, string) result

val load_repro : string -> (repro, string) result

(** [run ~hosts ~requests ~seed ()] boots [hosts] machines named
    [host-1 .. host-N] (those in [rogue] get a tampered agent), places
    the scenario, replays [requests] seeded requests under the plan and
    audits containment. Errors on an invalid plan (unknown host names,
    negative counts) — never on a mere containment violation, which is
    reported, not raised. *)
val run :
  ?config:Fleet.config -> ?plan:plan -> ?rogue:string list ->
  ?trace_capacity:int -> hosts:int -> requests:int -> seed:int -> unit ->
  (report * Lt_obs.Trace.t, string) result

val render_report_text : report -> string

val render_report_json : report -> string

(** {2 Shard kills}

    Hosts group round-robin into {e shards}: [host-n] belongs to shard
    [(n-1) mod shards], trust domain [shard-k] (the fleet-level
    counterpart of {!Lt_scale}'s nested tenant domains). Killing a
    shard kills every one of its machines; the audit then proves the
    observed blast radius stayed inside the dead shards' domain set. *)

(** [kill_shard_plan ~hosts ~shards ~kill] — a kill-only {!plan} that
    takes down every machine of every shard in [kill], each at its own
    seeded instant. *)
val kill_shard_plan :
  hosts:int -> shards:int -> kill:int list -> (plan, string) result

(** [shard_kill_audit ~shards ~kill report] — observed radius ⊆ the
    killed shards' domain set: every component whose observed impact is
    worse than untouched must belong to a cluster that was resident on
    a killed shard's machine (it failed over or ended unplaced), every
    killed machine must belong to a killed shard, and the static radius
    must hold. Only defined for reports of kill-only plans. *)
val shard_kill_audit :
  shards:int -> kill:int list -> report -> (unit, string list) result
