(** Lattice-based information-flow analysis and static-vs-kernel
    capability conformance.

    Two divergences the manifest (§III-A "a map of communication
    relationships") makes checkable, and this module turns into
    machine verdicts:

    - {b flow}: can a secret held behind a sep/sgx-class substrate reach
      an attacker-observable component along the declared channels, and
      can attacker-influenced data reach the secret holder? A worklist
      fixpoint over {!Flow_lattice} labels answers both in time linear
      in the channel count — no path enumeration.
    - {b conformance}: does the de-facto authority state of a booted
      {!Lt_kernel.Kernel.t} (capability spaces, badges, mapped frames)
      agree with the manifest graph? Over-privilege is a POLA violation
      the paper says the substrate must block; under-provision is a
      declared channel the deployment forgot to grant.

    {2 Flow model}

    Every unvetted declared channel [caller -> target.service] induces
    two information-flow edges: a {e request} edge (caller's data
    reaches the target) and a {e reply} edge (the target's answer
    reaches the caller). A [connects-vetted] channel induces neither:
    the trusted wrapper validates requests and declassifies replies
    (§III-D), so it is the {e only} place labels drop back to public.

    Taint (attacker influence) propagates along request edges — it
    models who can {e invoke} whom. Secrecy propagates along both kinds
    — replies are how secrets escape. The per-component label is the
    join of both fixpoints. *)

type config = {
  secret_substrates : string list;
      (** substrates whose components are secrecy sources (default sep,
          sgx, trustzone, flicker — same set as the linter's) *)
}

val default_config : config

(** One information-flow edge derived from a declared channel. *)
type edge = {
  e_src : string;
  e_dst : string;
  e_service : string;   (** the service of the underlying channel *)
  e_reply : bool;       (** [true]: this is the reply direction *)
}

(** A noninterference violation: [secret]'s material reaches [sink]
    (network-facing or vulnerable, and not the holder itself) along
    [path] — component names, holder first, sink last. *)
type leak = { l_secret : string; l_sink : string; l_path : string list }

(** Attacker-influenced data reaches secret holder [t_sink] from
    [t_source] along [t_path] (source first); [t_direct] when the path
    is a single hop. *)
type taint_hit = {
  t_source : string;
  t_sink : string;
  t_path : string list;
  t_direct : bool;
}

type verdict = Secure | Leak of leak list  (** [Leak] list is nonempty *)

type result = {
  labels : (string * Flow_lattice.t) list;
      (** per-component fixpoint label, sorted by name *)
  leaks : leak list;          (** sorted by (secret, sink) *)
  taint_hits : taint_hit list;(** sorted by (source, sink) *)
  verdict : verdict;
  edges : edge list;          (** the flow graph the solver ran on *)
}

(** [analyze manifests] — pure and total; inconsistent inputs (dangling
    targets, duplicates) simply contribute no edges. *)
val analyze : ?config:config -> Manifest.t list -> result

(** {2 Deployment and conformance} *)

(** A manifest set booted onto a microkernel: one task and one endpoint
    (["<name>.ep"]) per component, a receive capability on the own
    endpoint, and one badged send capability per declared channel pair
    (the badge identifies the caller — §III-D's defence against
    confused deputies). Channels to the same target share one
    capability: services multiplex over the component's endpoint, as in
    {!Substrate_kernel}. *)
type deployment = {
  d_kernel : Lt_kernel.Kernel.t;
  d_tasks : (string * Lt_kernel.Kernel.task) list;
  d_endpoints : (string * Lt_kernel.Kernel.endpoint) list;
  d_badges : (int * string) list;  (** badge -> caller component *)
}

(** [provision manifests] boots a fresh kernel and grants exactly the
    declared authority. [Error] on duplicate names or dangling
    targets. *)
val provision :
  ?dram_pages:int -> Manifest.t list -> (deployment, string) Stdlib.result

(** One capability fact extracted from a task's capability space. *)
type cap_fact = {
  c_task : string;
  c_endpoint : string;
  c_slot : int;
  c_badge : int;
  c_send : bool;
  c_recv : bool;
}

(** A capability (or shared frame) the manifest never declared. *)
type over_privilege = {
  o_task : string;
  o_endpoint : string;
  o_reason : string;
}

(** A declared channel pair the kernel never granted. *)
type under_provision = {
  u_caller : string;
  u_target : string;
  u_services : string list;
}

type conformance = {
  facts : cap_fact list;              (** the de-facto authority graph *)
  over : over_privilege list;
  under : under_provision list;
}

(** [authority kernel] walks every task's capability space. *)
val authority : Lt_kernel.Kernel.t -> cap_fact list

(** [conformance manifests kernel] compares declared against de-facto:
    - a send capability onto ["Y.ep"] held by component task [X] with no
      declared channel [X -> Y.*] is over-privilege, as is any receive
      capability on a foreign endpoint, a capability held by a task no
      manifest names, a badge collision on a client-discriminating
      target, and a physical frame shared between two components with no
      declared channel (de-facto sharing, OSmosis-style);
    - a declared channel pair with no send capability is
      under-provision.
    Capabilities attenuated with [derive_cap] conform iff their original
    did: derivation never widens authority. *)
val conformance : ?config:config -> Manifest.t list -> Lt_kernel.Kernel.t -> conformance

val conforms : conformance -> bool

(** Conformance findings as stable-ID diagnostics:
    [L017-undeclared-authority] (error) and [L018-under-provision]
    (warning), sorted. *)
val conformance_diagnostics : conformance -> Diagnostic.t list

(** [check_deployment manifests] — provision + conformance + flow in one
    assertion, for scenarios: [Ok ()] when the booted kernel matches the
    manifest and the flow verdict is {!Secure}. *)
val check_deployment :
  ?config:config -> Manifest.t list -> (unit, string) Stdlib.result

(** {2 Reports} *)

(** Human report: labels, taint reach, verdict, optional conformance. *)
val render_text : file:string -> ?conformance:conformance -> result -> string

(** One JSON object per file, machine-readable counterpart. *)
val render_json : file:string -> ?conformance:conformance -> result -> string

(** Labelled channel graph in Graphviz DOT: nodes coloured by label,
    request edges solid, vetted channels dashed with a [vetted] tag. *)
val to_dot : Manifest.t list -> result -> string

(** CI gate: any leak. *)
val has_leaks : result -> bool

(** {2 Solver internals}

    Exposed for the incremental {!Check} engine, which re-derives only
    the affected slice of a result after a delta and must agree with
    {!analyze} byte-for-byte. Everything here is deterministic: equal
    inputs give structurally equal outputs. *)

(** First manifest wins on duplicate names (same policy as
    {!Lint_rules.make_ctx}). *)
val dedupe : Manifest.t list -> Manifest.t list

(** The information-flow edges induced by the declared channels:
    request + reply per unvetted channel, skipping self-connections and
    dangling targets. Sorted and deduplicated. *)
val flow_edges : Manifest.t list -> edge list

(** Successor function with sorted successor lists — the deterministic
    adjacency both the solver and the witness search run on. *)
val adjacency : edge list -> string -> string list

(** [bfs_paths adj start] returns the shortest-witness path query used
    for leak and taint reports: breadth-first, first-discovery parents
    over the sorted adjacency, so equal graphs give equal paths. *)
val bfs_paths : (string -> string list) -> string -> string -> string list option

(** Is the component a taint source (network-facing or vulnerable)? *)
val tainted_base : Manifest.t -> bool

(** The declared channel pairs [(caller, target)], vetted or not,
    self-connections excluded. Sorted and deduplicated. *)
val declared_pairs : Manifest.t list -> (string * string) list

(** {2 Per-trust-domain verdicts}

    Tenant attribution (ROADMAP item 2): a leak belongs to the tenant
    (outermost trust-domain element) of the secret holder, a taint hit
    to the tenant of its source. Components in the root domain [[]]
    belong to no tenant and may appear in any tenant's evidence. *)

(** [(component -> trust path)] lookup over the manifests, first
    manifest wins; unknown names map to the root path. *)
val trust_paths : Manifest.t list -> string -> string list

(** The sorted tenant names declared by the fleet. *)
val tenants : Manifest.t list -> string list

(** Taint hits whose source and sink sit in {e disjoint} trust domains —
    must be empty for the tenant-isolation story to hold. *)
val cross_tenant_hits : Manifest.t list -> result -> taint_hit list

val cross_tenant_leaks : Manifest.t list -> result -> leak list

(** Text block for the CLI: per-tenant verdicts plus any cross-tenant
    witnesses; [""] when no manifest declares a trust domain, so flat
    fleets render byte-identically. *)
val render_domain_verdicts : Manifest.t list -> result -> string
