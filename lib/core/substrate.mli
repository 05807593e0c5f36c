(** The unified isolation interface (§III-A).

    "This interface should do for isolation mechanisms what POSIX did
    for the UNIX system call interface: allow application code to be
    independent of the underlying implementation."

    A {!t} is one isolation substrate instance. Trusted components are
    written once against {!facilities} and [launch]ed on any substrate;
    the conformance suite in the tests runs the same component across
    all seven adapters. [properties] describes the design trade-offs
    (§II-C) so system architects can hand-pick a mechanism by attacker
    model instead of by fashion. *)

(** Attacker capabilities a substrate defends against (§II-D). *)
type attacker_model =
  | Remote_software        (** exploits over the network *)
  | Local_software         (** compromised colocated OS/apps *)
  | Physical_memory        (** probing/patching the memory bus *)
  | Physical_code_swap     (** replacing firmware/boot code *)

type properties = {
  substrate_name : string;
  concurrent_components : bool;
      (** can several trusted components make progress in parallel? *)
  mutually_isolated : bool;
      (** are components protected from {e each other}, not just from
          the legacy world? (TrustZone: no — one secure world) *)
  defends : attacker_model list;
  tcb : (string * int) list;
      (** trusted pieces and notional sizes (lines of code), for the
          TCB analysis; hardware counts as code per §II-C *)
  shared_cache_with_host : bool;
      (** prime+probe surface (§II-C) *)
  progress_guaranteed : bool;
      (** can the untrusted side starve the component? (SGX: yes it can) *)
}

(** What a trusted component's service code gets from its substrate —
    the write-once-run-anywhere surface. *)
type facilities = {
  f_seal : string -> string;
      (** bind data to this component's identity on this device *)
  f_unseal : string -> string option;
  f_store : key:string -> string -> unit;
      (** substrate-protected storage *)
  f_load : key:string -> string option;
}

(** A service entry point: receives its facilities and a request. *)
type service = facilities -> string -> string

(** A launched trusted component. *)
type component

(** Why an invocation produced no answer: the interface's closed error
    vocabulary, the same on every adapter. *)
type error =
  | Killed of string
      (** the named component was {!field-crash}ed and not yet
          re-[launch]ed *)
  | Refused of string
      (** the service declined on purpose ({!Service_failure}); the
          component is healthy *)
  | Dep_crashed of { origin : string; reason : string }
      (** the service found its dependency [origin] dead mid-request
          ({!Dependency_crashed}) *)
  | Fault of string
      (** the substrate could not deliver: no entry point, malformed
          reply, component destroyed or silent, or an unexpected
          exception in the service code *)

type t = {
  properties : properties;
  launch :
    name:string -> code:string -> services:(string * service) list ->
    (component, string) result;
      (** [code] is the measured identity; [services] the entry points.
          Re-launching a crashed component's name revives it: the dead
          mark is cleared and a fresh instance (empty volatile state,
          same sealed identity) answers subsequent invokes. *)
  invoke : component -> fn:string -> string -> (string, error) result;
  attest :
    component -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result;
  measure : code:string -> string;
      (** predict the measurement of [code] (verifier side) *)
  destroy : component -> unit;
  crash : component -> unit;
      (** kill the component where it stands (crash-only discipline:
          volatile state is lost, sealed state survives). Subsequent
          {!field-invoke}s fail with {!Killed} until the name is
          re-[launch]ed. Idempotent. *)
  is_alive : component -> bool;
  mutable snap_layers : Lt_world.Snapshottable.layer list;
      (** Snapshottable layers covering {e all} mutable state reachable
          through this adapter — machine blocks, the substrate sim, the
          per-launch service tables, the dead-set. Assembled by each
          adapter's [make]; {!Deploy.world} collects them (deduplicating
          shared adapters) into one forkable world. *)
}

val component_name : component -> string

(** [make_component ~name ~measurement ~state] — for adapter authors. *)
val make_component : name:string -> measurement:string -> state:exn -> component

val component_measurement : component -> string

val component_state : component -> exn

(** A service declining a request on purpose — bad argument, downstream
    dependency unavailable, policy of its own. Distinct from a crash:
    the component is healthy, a supervisor must not restart it and a
    load run must count the request as failed, not the process as dead.
    Raise it with {!fail} from inside a behaviour. *)
exception Service_failure of string

(** [fail msg] aborts the current request with {!Service_failure}. *)
val fail : string -> 'a

(** A behaviour found one of its {e dependencies} dead mid-request.
    Distinct from {!Service_failure} (the callee declined on purpose)
    and from the caller itself crashing: [origin] names the component
    that is actually down, so routers and load reports attribute the
    fault to it instead of to whichever caller tripped over it. Under
    tenant sharding that attribution is what keeps one tenant's crash
    out of another tenant's blast radius. *)
exception Dependency_crashed of { origin : string; reason : string }

(** [dep_crashed ~origin reason] aborts the current request with
    {!Dependency_crashed}. *)
val dep_crashed : origin:string -> string -> 'a

(** [error_of_exn exn] classifies what a service raised:
    {!Service_failure} is [Refused], {!Dependency_crashed} is
    [Dep_crashed], anything else a [Fault] carrying
    [Printexc.to_string exn]. *)
val error_of_exn : exn -> error

(** [render_error e] — the status text traces and reports show:
    "component NAME crashed (killed)", "service failure: MSG",
    "dependency crashed: ORIGIN: REASON", or the fault message. *)
val render_error : error -> string

(** [mark_span r] marks the innermost open trace span failed with
    {!render_error} when [r] is an error, and returns [r]. *)
val mark_span : (string, error) result -> (string, error) result

(** {2 The reply codec}

    One wire format for every hop that moves bytes (IPC, mailbox, SMC,
    PAL session, DTU message, ecall): the caller sends {!request}, the
    callee answers with {!serve} (or {!answer}), the caller reads the
    reply back with {!reply}. An error crosses the hop as its variant,
    never as a string to be parsed. *)

(** [request ~fn arg] — the bytes {!serve} dispatches. *)
val request : fn:string -> string -> string

(** [answer service facilities arg] runs one entry point and encodes
    its result, or the {!error_of_exn} of what it raised, as reply
    bytes. *)
val answer : service -> facilities -> string -> string

(** [serve services facilities bytes] decodes a {!request}, runs the
    named entry point through {!answer} and returns the reply bytes;
    an unknown entry point or malformed request is a [Fault] reply. *)
val serve : (string * service) list -> facilities -> string -> string

(** [reply bytes] decodes what {!answer} encoded; anything else is
    [Fault "malformed reply"]. *)
val reply : string -> (string, error) result

(** [lifecycle ?dead ?teardown ()] — the shared crash bookkeeping for
    adapter authors: returns [(crash, is_alive, revive)] closures over a
    dead-set. [crash] marks the component dead and runs [teardown] once;
    [is_alive] consults the mark; [revive name] clears it (call from
    [launch]). Pass [?dead] to own the table — adapters do, so the mark
    set is part of their snapshot. *)
val lifecycle :
  ?dead:(string, unit) Hashtbl.t ->
  ?teardown:(component -> unit) -> unit ->
  (component -> unit) * (component -> bool) * (string -> unit)

(** [adapter_layer ~name ~dead ~tables ()] — the shared snapshot layer
    shape for adapter authors: captures the dead-set and the per-launch
    KV-table registry; [extra_take] adds more capture thunks and
    [extra_digest] folds adapter-specific state into the digest. *)
val adapter_layer :
  name:string ->
  dead:(string, unit) Hashtbl.t ->
  tables:(string, (string, string) Hashtbl.t) Hashtbl.t ->
  ?extra_take:(unit -> unit -> unit) list ->
  ?extra_digest:(Lt_world.Digest64.t -> Lt_world.Digest64.t) ->
  unit ->
  Lt_world.Snapshottable.layer

val pp_properties : Format.formatter -> properties -> unit

val pp_attacker_model : Format.formatter -> attacker_model -> unit
