(** Incremental lint + flow: delta-driven analysis for a live control
    plane.

    A {!t} holds the full analysis state of a manifest fleet — the
    {!Lint} diagnostics, the {!Flow} fixpoint with its leak and taint
    witnesses, and a provisioned kernel whose capability state tracks
    the declared channel graph. {!apply} advances the state by one
    {!Delta.t} and re-derives {e only the affected slice}:

    - the flow fixpoint is re-seeded on the forward closure of the
      delta's footprint (label decreases included — suspects are reset
      to their base label first, so removing a channel or un-tainting a
      component converges to the same unique fixpoint the batch solver
      finds);
    - leak and taint witness searches re-run only for secret holders
      and taint sources whose reachable region the delta touched;
    - lint rules re-run only on the seeds their declared
      {!Lint_rules.scope} marks dirty;
    - kernel capabilities are re-granted/revoked only for the touched
      channel pairs.

    The contract — enforced by a qcheck property and by
    [lateral hunt --engine analysis] — is {e byte-identical}
    equivalence: after any delta sequence, {!diagnostics} and
    {!flow_result} equal a from-scratch {!Lint.run} + {!Flow.analyze}
    structurally, hence render to identical bytes.

    States are {b linear}: {!apply} mutates internal caches in place
    and returns the advanced state, so the input state must not be used
    afterwards. *)

type t

(** [create manifests] — duplicates are dropped first-wins (deltas keep
    names unique from then on: {!Delta.Add} is an upsert). The fleet
    may be inconsistent (dangling targets, hazards): that is what the
    diagnostics report. [dram_pages] sizes the backing kernel's memory;
    the default leaves headroom for components added later. *)
val create :
  ?config:Lint_rules.config -> ?dram_pages:int -> Manifest.t list -> t

val manifests : t -> Manifest.t list

(** The current diagnostics, deduplicated and sorted — equal to
    [Lint.run (manifests t)]. *)
val diagnostics : t -> Diagnostic.t list

(** The current flow fixpoint — equal to [Flow.analyze (manifests t)]. *)
val flow_result : t -> Flow.result

(** The current containment analysis — equal to
    [Contain.analyze (manifests t)]; only the dirty roots (components
    whose radius the delta can reach) are re-solved per delta. *)
val contain_result : t -> Contain.result

(** [apply d t] advances the fleet by one delta and returns the new
    state plus its diagnostics. Linear: [t] must not be used again. *)
val apply : Delta.t -> t -> t * Diagnostic.t list

(** Static-vs-kernel conformance of the incrementally maintained
    deployment (see {!Flow.conformance}). *)
val conformance : t -> Flow.conformance

(** Does the maintained kernel state conform to the current fleet?
    Holds after any delta sequence. *)
val conformance_clean : t -> bool

(** Debug oracle: [None] when the incremental state is byte-identical
    to a from-scratch analysis, [Some reason] otherwise. Runs the full
    batch analysis — O(fleet), for tests and [--verify], not for the
    hot path. *)
val divergence : t -> string option

(** [domain_slice t tenant] — a canonical text rendering of one
    tenant's verdict slice: its components' diagnostics, flow labels,
    leaks and taint hits attributed to it, and the blast radii rooted in
    it. The per-domain isolation contract is that a delta whose
    footprint stays inside one tenant's trust domain (and that keeps the
    component count, which L021 reads globally) leaves every other
    tenant's slice byte-identical — qcheck-enforced in the tests. *)
val domain_slice : t -> string -> string
