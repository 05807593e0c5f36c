(** Sharded multi-tenant scale-out (ROADMAP item 2).

    One booted scenario deployment per {e shard} serves as a template;
    every tenant instance is a {!Lt_world.World.fork} of that template
    (O(dirty) copy-on-write, ~19 µs — see BENCH_snap.json), and the
    router time-multiplexes tenants over their shard by [restore] →
    batch of requests → [fork]. Nothing is redeployed per tenant, so
    tenant count scales to the tens of thousands.

    {b Trust domains.} Tenant [i] on shard [k] lives in the nestable
    trust domain [shard-k/tenant-i] (manifest [domain] stanzas,
    Tyche-style). {!fleet_manifests} materialises the whole fleet as
    per-tenant manifest sets carrying those paths, so
    {!Lateral.Lint}/{!Lateral.Flow}/{!Lateral.Contain} per-domain
    verdicts and {!Lateral.Check.domain_slice} apply directly: one
    tenant's taint or blast radius can never be attributed to another.

    {b Admission.} Each shard fronts its tenants with a
    {!Lt_net.Gateway} token bucket; requests that find the bucket empty
    are throttled at the door (counted per tenant, never issued).

    {b Determinism.} The request mix of tenant [i] derives from
    {!Lt_crypto.Drbg.substream}[ master i] — a pure function of
    [(seed, i)] — so equal seeds give byte-identical reports, and a run
    over 100 tenants and a run over 1000 give byte-identical per-tenant
    traffic digests for the 100 shared tenants.

    {b Chaos.} [sc_kill_shards] kills whole shards at the start of
    round [sc_kill_after]: every subsequent request routed to a dead
    shard is refused with a typed per-tenant fault line. The report
    audits the observed blast radius: a failure attributed to a tenant
    outside a killed shard's domain set is a containment violation
    ({!contained} is false). *)

type config = {
  sc_scenario : Lt_load.Load.scenario;
  sc_tenants : int;
  sc_shards : int;
  sc_requests_per_tenant : int;
  sc_batch : int;       (** requests issued per tenant visit *)
  sc_seed : int;
  sc_admit_rate : float;   (** gateway tokens per tick, per shard *)
  sc_admit_burst : float;  (** gateway burst, per shard *)
  sc_kill_shards : int list;
  sc_kill_after : int;  (** round at whose start the kills fire; 0 = never *)
}

val default : config

type tenant_report = {
  tr_tenant : int;
  tr_shard : int;
  tr_domain : string list;
  tr_ok : int;
  tr_degraded : int;   (** answered, but rate-limited inside the scenario *)
  tr_errors : int;     (** typed call errors *)
  tr_throttled : int;  (** refused by the shard gateway's token bucket *)
  tr_refused : int;    (** refused because the tenant's shard was killed *)
  tr_traffic : string;
      (** hex digest of the tenant's generated request stream — the
          pool-size-independence witness *)
}

type report = {
  s_scenario : string;
  s_tenants : int;
  s_shards : int;
  s_requests_per_tenant : int;
  s_requests : int;  (** total issued or refused across all tenants *)
  s_seed : int;
  s_ok : int;
  s_degraded : int;
  s_errors : int;
  s_throttled : int;
  s_refused : int;
  s_killed_shards : int list;
  s_cross_domain_failures : (int * string) list;
      (** (tenant, detail) for every failure attributed to a tenant
          {e outside} the killed shards' domain set — must be [[]] *)
  s_forks : int;     (** world forks performed (tenant instances + visits) *)
  s_restores : int;  (** world restores performed *)
  s_counters : (string * int) list;
  s_tenant_reports : tenant_report list;  (** ordered by tenant id *)
}

(** Observed blast radius ⊆ the killed shards' domain set. *)
val contained : report -> bool

(** [run config] — boots one template deployment per shard, then drives
    the closed-loop seeded mix across all tenants in shard-major
    batches. Errors on invalid config or a failed template boot; shard
    kills and per-tenant faults are reported, never raised. *)
val run : config -> (report, string) result

(** [fleet_manifests config] — the whole fleet as static manifests: the
    scenario's components cloned per tenant, names and protection
    domains prefixed [t<i>.], each carrying its tenant's trust-domain
    path. Feed to {!Lateral.Lint.run}, {!Lateral.Flow.analyze},
    {!Lateral.Contain.analyze} and the per-domain verdict renderers. *)
val fleet_manifests : config -> (Lateral.Manifest.t list, string) result

val render_report_text : report -> string

val render_report_json : report -> string
