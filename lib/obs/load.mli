(** Deterministic closed-loop load engine.

    [run] deploys one of the paper's scenarios onto real simulated
    substrates ({!Lateral.Deploy}), installs a fresh tracer and metrics
    registry, and replays a seeded request mix: one request at a time
    (closed loop), each a routed external call into the deployment's
    network-facing entry point, optionally perturbed by per-request
    fault injection. Everything — the request mix, the payloads, the
    fault schedule, the span ids and ticks — derives from the seed, so
    two runs with equal arguments produce byte-identical trace exports
    and reports. *)

type scenario = Mail | Meter | Cloud

val all_scenarios : scenario list

val scenario_name : scenario -> string

val scenario_of_string : string -> (scenario, string) result

(** Per-request fault injection, in percent of requests (deterministic,
    seeded). Faults are disjoint: a request suffers at most one. *)
type fault_plan = {
  drop_pct : int;        (** request never issued *)
  delay_pct : int;       (** logical-clock delay before the request *)
  compromise_pct : int;  (** an off-manifest call is attempted instead *)
}

(** {2 Deployed scenarios}

    Exposed so the chaos harness ({!Lt_resil}-side) can drive the same
    deployments request-by-request while killing components, instead of
    going through the closed loop in {!run}. *)

(** Hooks into the mail scenario's persistent storage: a real
    {!Lt_storage.Vpfs} (the §III-D trusted wrapper) over the crashable
    legacy FS, plus a shadow oracle recording every acknowledged write.
    A chaos driver cuts power after an arbitrary number of backend block
    writes — including inside the 4-write redo-journal window of one
    VPFS mutation — then remounts, recovers, and audits. *)
type storage_harness = {
  st_crash_backend : int -> unit;
      (** power fails after [n] more backend block writes *)
  st_backend_alive : unit -> bool;
  st_recover : unit -> (string, string) result;
      (** remount + crash-consistent reopen against the trusted root;
          [Ok "clean"] or [Ok "recovered"] *)
  st_check : unit -> (unit, string) result;
      (** compare the recovered VPFS against the shadow oracle *)
  st_leaked : needle:string -> bool;
      (** did the legacy stack ever observe [needle] in plaintext,
          across all remounts? *)
}

type deployed = {
  d_deploy : Lateral.Deploy.t;
  d_mix : Lt_crypto.Drbg.t -> int -> string * string * string;
      (** seeded request mix: (target, service, payload) *)
  d_probe : string option * string * string;
      (** an off-manifest probe for compromised-caller fault injection *)
  d_routes : (string * string * string list) list;
      (** each external route with the components it transits — the unit
          of blast-radius accounting for chaos runs *)
  d_storage : storage_harness option;  (** mail only *)
  d_world : Lt_world.World.t;
      (** the whole booted deployment — substrates, control plane and
          scenario harness state — as one forkable world; fork once,
          rewind per chaos schedule instead of redeploying *)
}

(** [deploy_scenario rng scenario] boots the scenario's substrates and
    components. The scenario manifests carry [restart] policies and
    [stateful] marks, so a {!Lt_resil}-style supervisor can be layered
    on directly. *)
val deploy_scenario :
  Lt_crypto.Drbg.t -> scenario -> (deployed, string) result

(** {2 The driver core}

    What the four run drivers (this module's {!run}, chaos, fleet and
    scale) share; each keeps only its topology, fault plan and report. *)

(** [boot ~scenario ~seed] — the driver's rng seeded from [seed] and
    the scenario deployed from a split of it. *)
val boot :
  scenario:scenario -> seed:int ->
  (Lt_crypto.Drbg.t * deployed, string) result

(** [instrumented ?trace_capacity f] runs [f] under a fresh tracer
    (span ring of [trace_capacity], default 65536) and a fresh metrics
    registry, and returns both with [f]'s result. *)
val instrumented :
  ?trace_capacity:int -> (unit -> 'a) ->
  'a * Lt_obs.Trace.t * Lt_obs.Metrics.t

(** [schedule rng ~requests names] — each name paired with a seeded
    request instant in [1, max requests 1]: when a kill lands. *)
val schedule :
  Lt_crypto.Drbg.t -> requests:int -> 'a list -> (int * 'a) list

(** How one external request ended: answered, answered but rate-limited
    (a reply starting ["rate-limited:"]), or failed. *)
type 'e outcome = Served | Degraded | Failed of 'e

(** [request ~attrs ~target ~service ~error call] — the step every
    driver (run, chaos, fleet, scale) issues a request through: runs
    [call] inside a ["request"] span named [target.service] carrying
    [attrs], marks the span failed with [error e] on [Error e], and
    classifies the reply. Each driver decides how to count the
    outcome. *)
val request :
  attrs:(string * string) list -> target:string -> service:string ->
  error:('e -> string) -> (unit -> (string, 'e) result) -> 'e outcome

type report = {
  r_scenario : string;
  r_requests : int;
  r_seed : int;
  r_ok : int;               (** requests answered [Ok] *)
  r_degraded : int;         (** answered, but rate-limited at the gateway *)
  r_errors : int;           (** requests answered [Error] *)
  r_dropped : int;          (** fault: never issued *)
  r_delayed : int;          (** fault: issued after a delay *)
  r_denied_probes : int;    (** fault: off-manifest attempts, all denied *)
  r_violations : int;       (** channel violations the router recorded *)
  r_substrates : string list;  (** distinct substrates spans crossed *)
  r_spans : int;            (** spans recorded (before ring eviction) *)
  r_span_ticks : int;       (** final logical clock *)
  r_counters : (string * int) list;
  r_histograms : (string * Lt_obs.Metrics.summary) list;
}

(** [run ~scenario ~requests ~seed ()] — returns the report plus the
    tracer (for export) or an error when the deployment cannot boot.
    [faults] defaults to none; [trace_capacity] bounds the span ring
    (default 65536). *)
val run :
  ?faults:fault_plan -> ?trace_capacity:int ->
  scenario:scenario -> requests:int -> seed:int -> unit ->
  (report * Lt_obs.Trace.t, string) result

val render_report_text : report -> string

val render_report_json : report -> string
