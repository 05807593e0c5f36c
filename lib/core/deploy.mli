(** Deployment: a horizontal application launched onto real substrates.

    {!App} checks communication control over in-process stubs; this
    module goes the rest of the way (§III-C "the implementor may choose
    SGX because..."): each component's code is launched as a trusted
    component on the isolation substrate its manifest names, and every
    cross-component call is (1) checked against the caller's manifest
    and (2) delivered as a real substrate invocation (ecall, SMC,
    IPC, ...). Component code gets both its substrate {!Substrate.facilities}
    and a router handle for outbound calls. *)

type ctx = {
  facilities : Substrate.facilities;
      (** seal/store on the component's own substrate *)
  call_out_typed :
    target:string -> service:string -> string -> (string, App.call_error) result;
      (** routed, manifest-checked outbound call; the failure keeps its
          class, so a behaviour can cascade a dead dependency as a fault
          and a refusal as its own {!Substrate.fail}
          ({!App.render_call_error} gives the text) *)
}

type behaviour = ctx -> service:string -> string -> string

type t

(** [deploy ~substrates components] launches every component on the
    substrate its manifest's [substrate] field names. Fails when a
    substrate is unknown or a launch fails. *)
val deploy :
  substrates:(string * Substrate.t) list ->
  (Manifest.t * behaviour) list ->
  (t, string) result

(** [call t ~caller ~target ~service req] — entry from the outside world
    ([caller = None], only into network-facing components) or on behalf
    of a component. Channel checks are identical to {!App.call}. *)
val call :
  t -> caller:string option -> target:string -> service:string -> string ->
  (string, string) result

(** [call_typed] — like {!call} with the failure kept as a routing
    decision ({!App.call_error}); what supervisors and circuit breakers
    classify on. An unknown target is a typed error plus a deny-style
    trace event and [channel/unknown_target] counter — never a raise. *)
val call_typed :
  t -> caller:string option -> target:string -> service:string -> string ->
  (string, App.call_error) result

(** [violations t] — blocked channels, as in {!App.violations}. *)
val violations : t -> App.violation list

(** Deployed component names, sorted. *)
val components : t -> string list

val manifest : t -> string -> Manifest.t option

(** [crash t name] kills the component where it stands on its substrate
    (volatile state lost, sealed state kept). Idempotent. *)
val crash : t -> string -> (unit, string) result

(** [is_alive t name] — false for crashed {e and} unknown names. *)
val is_alive : t -> string -> bool

(** [relaunch t name] launches a fresh instance from the component's
    original manifest and behaviour on its original substrate, replacing
    the dead one in the routing table. A still-live instance is crashed
    first (crash-only discipline: there is no graceful stop). *)
val relaunch : t -> string -> (unit, string) result

(** [substrate_of t name] — where a component actually runs. *)
val substrate_of : t -> string -> string option

(** [destroy t] scrubs the whole deployment: every component instance is
    destroyed on its substrate (volatile {e and} sealed state gone) and
    the routing/spec tables are emptied, so no later call can revive
    anything. The fencing primitive — a host that lost ownership of a
    cluster during a partition runs this on the stale instances before
    acknowledging the reconcile. Idempotent. *)
val destroy : t -> unit

(** [attest t ~component ~nonce ~claim] — remote evidence for one
    component from its own substrate. *)
val attest :
  t -> component:string -> nonce:string -> claim:string ->
  (Attestation.evidence, string) result

(** {2 The fast path}

    [call] walks the full enforcing pipeline per request: policy check,
    trace span, substrate hop, result boxing. For hot edges that never
    change — the manifest graph is fixed at deploy time — {!resolve}
    precomputes the dispatch once and {!call_fast} runs the behaviour
    directly against its real facilities with {e zero minor-heap
    allocation} on the untraced success path. *)

(** A precomputed dispatch edge. Only statically authorized edges get
    one. *)
type route

(** [resolve t ~caller ~target ~service] — [None] when the edge is not
    in the manifest graph (or the target/service is unknown): such calls
    must go through {!call}, which records the deny. Routes are cached;
    resolving twice returns the same route. *)
val resolve :
  t -> caller:string option -> target:string -> service:string ->
  route option

(** [call_fast t route req] — the behaviour's answer. Falls back to the
    full pipeline (and raises {!App.Call_failed} on a typed failure) when
    tracing is on, the target is compromised or dead, or the route has
    not yet seen a successful slow call (the first call through a route
    always takes the slow path to capture the target's facilities).
    The behaviour's own exceptions ({!Substrate.Service_failure}) pass
    through untranslated on the fast path. *)
val call_fast : t -> route -> string -> string

(** {2 Snapshots} *)

(** Captures the control plane: App flags/violations, placements,
    specs, the facilities cache and routes. *)
val take_snapshot : t -> unit -> unit

val state_digest : t -> Lt_world.Digest64.t

(** The control plane as one {!Lt_world.Snapshottable} layer. *)
val layer : ?name:string -> t -> Lt_world.Snapshottable.layer

(** [world t] — the whole booted deployment as a forkable
    {!Lt_world.World}: every adapter's [snap_layers] (deduplicated)
    plus the deploy layer, plus [extra] harness layers appended last.
    [World.fork]/[World.restore] then clone/rewind the entire stack in
    microseconds. *)
val world : ?extra:Lt_world.Snapshottable.layer list -> t -> Lt_world.World.t
