(** janus_adapt: online adaptive loop governor.

    Janus classifies loops offline (static analysis + a training-run
    profile, Fig. 1a of the paper), so a deployed schedule keeps paying
    bounds-check, init/finish and STM-abort costs on loops that
    misbehave under the real input — the sequential-fallback path
    (§II-E2) fires invocation after invocation with no memory. The
    governor closes that gap at run time: a per-loop ledger is fed from
    the runtime's existing hook sites (the same places that emit
    [janus_obs] events), and a policy engine with rolling windows and
    hysteresis moves each loop through [Parallel -> Probation ->
    Sequential] and back, demoting pathological loops after a few bad
    invocations and probing demoted loops periodically so they can be
    re-promoted when the input regime shifts.

    {b Training-free mode}: a Dynamic-class loop deployed without a
    profile starts in {!Sampling}: its first [sample_n]
    invocations run sequentially under the memory-dependence profiler's
    shadow word-map ({!Janus_profile.Profiler.Shadow}) as an online
    sample, after which the governor commits the loop to parallel or
    sequential execution.

    Every decision is a pure function of virtual cycles and counters,
    so runs are bit-identical across [--jobs] levels and cold/warm
    schedule caches. *)

module Obs = Janus_obs.Obs
module Machine = Janus_vm.Machine

(** Policy knobs. All arithmetic is integer-only for determinism. *)
type params = {
  window : int;       (** rolling window of recent parallel outcomes *)
  demote_k : int;     (** bad outcomes within [window] that demote *)
  promote_k : int;    (** consecutive good outcomes that re-promote *)
  probe_period : int; (** sequential invocations between probes *)
  sample_n : int;     (** training-free sample invocations *)
  gain_pct : int;     (** parallel is "good" when
                          [work * 100 >= cost * gain_pct] *)
}

val default_params : params

type state =
  | Parallel     (** run the schedule as emitted *)
  | Probation    (** recently demoted or freshly probed: one more bad
                     outcome falls to [Sequential], [promote_k] good
                     ones restore [Parallel] *)
  | Sequential   (** checks skipped, loop runs sequentially; probed
                     every [probe_period] invocations *)
  | Sampling     (** training-free: observing under shadow memory *)

val state_name : state -> string

(** What the governor wants for one invocation. *)
type decision =
  | Go_parallel    (** follow the schedule (checks, chunking, STM) *)
  | Go_probe       (** as [Go_parallel], but this is a probe of a
                       demoted loop *)
  | Go_sequential  (** skip the check, run the invocation sequentially *)
  | Go_sample      (** run sequentially under the dependence sampler *)

type t

(** [create ()] makes a governor with no registered loops. Decisions
    for unregistered loops are always [Go_parallel] and nothing is
    recorded, so an installed-but-empty governor is inert. [obs]
    receives [governor_*] trace events (when tracing is enabled). *)
val create : ?params:params -> ?obs:Obs.t -> unit -> t

val params : t -> params

(** [register t loop_id ~profiled] puts a loop under governance.
    [profiled:false] marks a loop deployed without profile evidence: it
    starts in {!Sampling} (if [sample_n > 0]); profiled loops start in
    {!Parallel}. Re-registering an existing loop is a no-op. *)
val register : t -> int -> profiled:bool -> unit

(** Fleet-evidence warm start (the persistent-PGO ledger-export loop,
    {!Janus_pgo.Pgo}): register a loop whose aggregated cross-run
    history is suspect — earlier runs demoted it or watched its bounds
    checks fail. It starts in {!Probation} instead of {!Parallel}, so
    one more bad invocation demotes it immediately rather than after a
    full bad window, while [promote_k] good outcomes clear its record
    as usual. Re-registering an existing loop is a no-op. *)
val register_suspect : t -> int -> unit

(** Is this loop under governance? *)
val governed : t -> int -> bool

(** Current state, if governed. *)
val state : t -> int -> state option

(** Called from the MEM_BOUNDS_CHECK hook, which fires {e before}
    LOOP_INIT in the same invocation: computes (and caches) this
    invocation's decision and returns [true] when the runtime bounds
    check should be skipped entirely ([Go_sequential]/[Go_sample]) —
    a demoted loop stops paying the check cost. *)
val skip_check : t -> int -> bool

(** The decision for this invocation — the one cached by {!skip_check}
    if the loop's schedule has a check rule, computed fresh otherwise.
    Consumes the cache; call exactly once per invocation, at LOOP_INIT.
    [now] (virtual cycles) timestamps any probe event. *)
val decide : t -> int -> now:int -> decision

(** One runtime bounds-check evaluation: outcome and modelled cost. *)
val record_check : t -> int -> ok:bool -> cycles:int -> unit

(** One parallel invocation completed. [work] is the summed worker
    cycles the invocation realised, [cost] the cycles the main thread
    actually paid (init + slowest worker + finish + this invocation's
    check); [commits]/[aborts] are the STM deltas. The invocation is
    {e bad} when aborts outnumber commits or the realised speedup falls
    below [gain_pct]; window/hysteresis transitions happen here. *)
val record_parallel :
  t -> int -> now:int -> work:int -> cost:int -> commits:int ->
  aborts:int -> unit

(** A failed bounds check sent this invocation down the sequential
    fallback — always a bad outcome. *)
val record_fallback : t -> int -> now:int -> unit

(** A governor-sequential ([Go_sequential]) invocation finished,
    having cost [cycles]. *)
val record_seq : t -> int -> cycles:int -> unit

(** {2 Training-free sampling}

    The pair below brackets one [Go_sample] invocation. [sample_begin]
    installs the shadow-memory observer on [ctx] (a no-op if another
    observer — e.g. the offline profiler — is already installed);
    accesses outside globals+heap ([Layout.data_base ..
    Layout.heap_limit)) are ignored, as are accesses touching an
    address in [exclude] (privatised/reduction locations the schedule
    already handles). [read_iv] names the current iteration: the live
    induction-variable value, the online stand-in for the offline
    profiler's ITER counter. *)
val sample_begin :
  t -> int -> Machine.t -> read_iv:(unit -> int64) -> exclude:int list ->
  unit

(** Uninstalls the observer, folds the sample in, and — after
    [sample_n] samples — commits the loop to [Parallel] (no dependence
    seen) or [Sequential] (dependence found). *)
val sample_end : t -> int -> Machine.t -> now:int -> unit

(** {2 Reporting} *)

(** Immutable per-loop ledger snapshot. *)
type loop_stats = {
  loop_id : int;
  final : state;
  invocations : int;       (** decisions taken *)
  par_invocations : int;   (** completed parallel (incl. probes) *)
  seq_invocations : int;   (** governor-sequential invocations *)
  probes : int;
  samples : int;
  fallbacks : int;
  checks_passed : int;
  checks_failed : int;
  check_cycles : int;
  commits : int;
  aborts : int;
  par_work : int;          (** summed worker cycles over parallel invs *)
  par_cost : int;          (** main-thread cycles over parallel invs *)
  seq_cycles : int;
  demotions : int;
  promotions : int;
  sampled_dep : bool;      (** sampling saw a cross-iteration dep *)
}

(** All governed loops, sorted by loop id. *)
val snapshot : t -> loop_stats list

(** Mirror the ledgers into [adapt.*] counters (aggregate totals plus
    [adapt.loop.<id>.*] per-loop detail). *)
val publish_metrics : t -> Obs.t -> unit

(** Human-readable report for [janus_run --adapt-report]. *)
val pp_report : Format.formatter -> t -> unit
