(** The staged pipeline of Fig. 1(a) as explicit, typed stages —
    [compile -> analyse -> profile -> select -> schedule -> execute] —
    each returning a reusable artifact, plus a content-keyed artifact
    store that lets configuration sweeps share the static-side work.

    Every stage is keyed by the hash of the image bytes (for [compile],
    of the source text) combined with {e only the configuration fields
    that stage actually reads}, so e.g. all four Fig. 7 configurations
    of one benchmark share a single static analysis, and all eight
    Fig. 9 thread counts share analysis, profiles and schedule — thread
    count is an execute-stage parameter and never enters a static key.

    The verifier's verdict on a schedule ({!verify}) is an artifact
    too: it depends on nothing but the image and the schedule's bytes.

    Artifacts are deterministic functions of their key (loop ids and
    symbolic-atom ids restart per analysis), so a cache hit returns
    exactly the value a recomputation would produce: results are
    bit-identical between cold and warm runs, and between sequential
    and domain-parallel sweeps. Artifacts are immutable once
    constructed and the store is mutex-guarded, so one store can be
    shared by pipeline instances running on separate domains.

    The execute stage ({!Janus.run_parallel}) is the measurement and is
    never cached; its verification gate ({!Janus.gate}) is the cached
    {!verify} on a store the caller passes. *)

module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Profiler = Janus_profile.Profiler
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Jcc = Janus_jcc.Jcc
module Obs = Janus_obs.Obs

(** Pipeline configuration (re-exported as [Janus.config]); see
    {!Janus.config} for field documentation. *)
type config = {
  threads : int;
  use_profile : bool;
  use_checks : bool;
  use_doacross : bool;
  cov_threshold : float;
  trip_threshold : float;
  work_threshold : float;
  force_policy : Desc.policy option;
  stm_everywhere : bool;
  prefetch : bool;
  fission : bool;
  model_cache : bool;
  verify : bool;
  fuel : int;
  trace : bool;
  adapt : bool;
}

val config :
  ?threads:int ->
  ?use_profile:bool ->
  ?use_checks:bool ->
  ?use_doacross:bool ->
  ?cov_threshold:float ->
  ?trip_threshold:float ->
  ?work_threshold:float ->
  ?force_policy:Desc.policy ->
  ?stm_everywhere:bool ->
  ?prefetch:bool ->
  ?fission:bool ->
  ?model_cache:bool ->
  ?verify:bool ->
  ?fuel:int ->
  ?trace:bool ->
  ?adapt:bool ->
  unit ->
  config

(** {1 Profile evidence}

    Aggregated fleet evidence ({!Janus_pgo.Pgo} builds it from a
    persistent profile store) substituted for the one-shot training
    profile: the select stage consumes the merged coverage and
    dependence verdicts instead of re-profiling, and the schedule key
    gains the store {e generation} ([ev_generation], a content digest
    of the merged profile), so warm schedule caches invalidate exactly
    when the evidence shifts. With no evidence attached, keys and
    artifacts are byte-identical to a pgo-free build. *)
type evidence = {
  ev_coverage : Profiler.coverage option;
      (** invocation-weighted coverage summed over the fleet's
          profiler runs *)
  ev_deps : Profiler.deps option;
      (** pessimistic dependence join: a loop is flagged when {e any}
          run observed a cross-iteration dependence (profiled, sampled,
          or proven by a failed runtime bounds check) *)
  ev_suspect : int list;
      (** loops whose aggregated governor history shows demotions or
          failed checks — {!Janus.run_parallel} warm-starts these in
          the governor's probation state *)
  ev_generation : string;
      (** content digest of the merged profile: the schedule-key
          component that invalidates warm caches when evidence shifts *)
}

(** {1 The artifact store} *)

type store

(** [store ()] makes an empty artifact store. [enabled:false] makes a
    store that never caches (every lookup recomputes) — the [--no-cache]
    backend, useful to measure cold-pipeline cost.

    [dir] adds a persistent layer under that directory (created if
    missing): every artifact is also published there as a checked
    {!Envelope} entry ([<kind>-<md5(key)>.jart], written atomically),
    and a memory miss consults the directory before recomputing — so a
    fresh process answers from everything earlier runs computed.
    Entries carry the build stamp {!Build_id.id}: one from another
    build (whose [Marshal]ed payload may not fit this build's types) is
    a plain miss; a truncated or tampered one is a miss counted under
    disk errors. Either is overwritten by the recomputed artifact, which
    is byte-identical to a persistent hit. Nothing is ever deleted. *)
val store : ?enabled:bool -> ?dir:string -> unit -> store

(** The persistent layer's directory, if the store has one. *)
val store_dir : store -> string option

(** The process-wide store the [?store] parameters default to, so
    repeated pipeline runs in one process share static artifacts unless
    a caller opts out. *)
val default_store : store

(** Drop every cached artifact from the {e memory} layer (counters and
    on-disk entries are kept — a later lookup may still hit the
    persistent layer). *)
val clear : store -> unit

type cache_stats = { hits : int; misses : int }

(** Lifetime hit/miss counters across all artifact kinds; [hits] counts
    memory and persistent-layer hits together, [misses] counts actual
    recomputations. A concurrent duplicate computation of the same key
    counts as a miss for each computing domain (the store never blocks
    a reader on another domain's computation; identical values make the
    race benign). *)
val cache_stats : store -> cache_stats

(** Per-kind counter breakdown, memory and disk separated. *)
type kind_stat = {
  k_kind : string;
      (** image | analysis | profile | schedule | verified *)
  k_mem_hits : int;
  k_disk_hits : int;
  k_misses : int;
  k_disk_errors : int;    (** malformed entries seen, failed publishes *)
}

val kind_stats : store -> kind_stat list

(** Publish the store's counters into a metrics registry as
    [pipeline.cache.{hits,misses}], [pipeline.cache.disk.{hits,errors}]
    plus per-kind [pipeline.cache.<kind>.{hits,misses}] and
    [pipeline.cache.<kind>.disk.{hits,errors}] counters. *)
val publish_metrics : store -> Obs.t -> unit

(** {1 Stages}

    Each stage consumes the previous stage's artifact and returns its
    own; [?store] (default {!default_store}) memoises the result under
    the stage's content key. *)

(** Stage 0 — guest compilation: source text to JX image.
    Key: source digest + every {!Jcc.options} field. *)
val compile : ?store:store -> ?options:Jcc.options -> string -> Janus_vx.Image.t

(** The content key of an image (hex digest of its serialised bytes) —
    the key every per-binary artifact, profile and fleet ledger hangs
    off. *)
val image_key : Janus_vx.Image.t -> string

(** Stage 1 — static analysis: CFG recovery, loop forest, per-loop
    classification. Key: image digest. [pool] shards the analysis per
    function on a miss (see {!Analysis.analyse_image}); hits ignore it,
    which is sound because the sharded analysis is bit-identical to the
    sequential one. *)
val analyse :
  ?store:store -> ?pool:Janus_pool.Pool.t -> Janus_vx.Image.t -> Analysis.t

(** Stage 2 — training-input profiling: one {!Profiler.run}, cached as
    one artifact (kind [profile]) holding both profiles. Returns
    [(coverage, deps)] with each side present only when the
    configuration asks for it ([use_profile] / [use_checks]); asked for
    neither, it runs nothing. Key: image digest + training input + fuel
    (the only config fields the profiler reads). *)
val profile :
  ?store:store ->
  cfg:config ->
  train_input:int64 list ->
  Janus_vx.Image.t ->
  Analysis.t ->
  Profiler.coverage option * Profiler.deps option

(** Loop selection outcome (re-exported as [Janus.selection]). *)
type selection = {
  chosen : (Loopanal.report * Desc.policy) list;
  rejected : (int * string) list;
}

(** Stage 3 — loop selection: eligibility and profitability filters
    over the analysis given the profiles. Pure and cheap — never
    cached. *)
val select :
  cfg:config ->
  Analysis.t ->
  coverage:Profiler.coverage option ->
  deps:Profiler.deps option ->
  selection

(** Stage 4 — rewrite-schedule generation for the selected loops.
    Key: image digest + training input + fuel + the selection-relevant
    config fields ([use_profile], [use_checks], [use_doacross], the
    three thresholds, [force_policy]) + [prefetch] + [fission] —
    everything the selection and the rule generator read, so equal keys
    imply an equal schedule. When [evidence] is attached, the key also
    quotes its generation digest, so a warm cache re-derives the
    schedule exactly when the merged fleet evidence shifts; with no
    evidence the key string is unchanged from a pgo-free build. *)
val schedule :
  ?store:store ->
  ?evidence:evidence ->
  cfg:config ->
  train_input:int64 list ->
  Janus_vx.Image.t ->
  Analysis.t ->
  selection ->
  Schedule.t

(** Stage 5 — schedule verification: {!Janus_verify.Verify.check_and_demote}
    memoised, returning the (possibly reduced) schedule, the demoted
    loop ids and the findings. Key: image digest + digest of
    {!Schedule.to_bytes} of the schedule + {!Janus_verify.Verify.version}
    — a schedule is identified by the bytes it ships as, so one
    schedule reached through any configuration (or decoded from disk)
    is verified once. [pool] shards the lint on a miss; hits ignore it,
    which is sound because the sharded lint is byte-identical to the
    sequential one. Persisted (kind [verified]) like every other
    artifact, so a restarted process re-verifies nothing it has seen. *)
val verify :
  ?store:store ->
  ?pool:Janus_pool.Pool.t ->
  Janus_vx.Image.t ->
  Schedule.t ->
  Schedule.t * int list * Janus_verify.Verify.finding list
