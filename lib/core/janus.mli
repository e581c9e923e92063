(** The Janus automatic-parallelisation pipeline (Fig. 1(a)).

    Typical use:
    {[
      let image = Janus_jcc.Jcc.compile source in
      let native = Janus.run_native image in
      let result = Janus.parallelise ~cfg:(Janus.config ~threads:8 ()) image in
      assert (String.equal native.output result.output);
      Fmt.pr "%.2fx@." (Janus.speedup ~native ~run:result)
    ]}

    The paper's four evaluation configurations (Fig. 7) map to:
    native execution {!run_native}; "DynamoRIO" {!run_dbm_only};
    "Statically-Driven" [config ~use_profile:false ~use_checks:false ()];
    "+ Profile" [config ~use_checks:false ()]; full Janus [config ()]. *)

module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Rulegen = Janus_analysis.Rulegen
module Profiler = Janus_profile.Profiler
module Dbm = Janus_dbm.Dbm
module Runtime = Janus_runtime.Runtime
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Obs = Janus_obs.Obs
module Adapt = Janus_adapt.Adapt

(** Pipeline configuration (an alias of {!Pipeline.config}: the static
    side of the pipeline lives there as explicit stages, and this module
    composes them). *)
type config = Pipeline.config = {
  threads : int;            (** virtual hardware threads (paper: 8) *)
  use_profile : bool;       (** profile-guided loop selection (§II-C) *)
  use_checks : bool;        (** dynamic DOALL via checks + speculation *)
  use_doacross : bool;
      (** extension (the paper's future work): parallelise
          static-dependence loops by in-order chunk hand-off *)
  cov_threshold : float;    (** min fraction of dynamic instructions *)
  trip_threshold : float;   (** min average iterations per invocation *)
  work_threshold : float;   (** min instructions per invocation *)
  force_policy : Desc.policy option;  (** scheduling-policy override *)
  stm_everywhere : bool;
      (** ablation: buffer every worker access transactionally *)
  prefetch : bool;
      (** extension (the paper's future work): MEM_PREFETCH rules on
          the selected loops' strided accesses *)
  fission : bool;
      (** extension (Aubert et al.): distribute Static-Dependence
          loops whose dependence graph splits into a carried-free and
          a carried part — the DOALL product runs in parallel, the
          sequential residue follows as a second loop instance. Off by
          default; when off, schedules are bit-identical to a
          fission-free build *)
  model_cache : bool;
      (** charge cold-line misses ({!Janus_vx.Cost.cache_miss}); pair
          with [prefetch] and a [run_native ~model_cache:true]
          baseline *)
  verify : bool;
      (** lint the rewrite schedule against the binary before the DBM
          applies it ({!Janus_verify.Verify}); loops with errors are
          demoted to sequential execution *)
  fuel : int;               (** interpreter instruction budget *)
  trace : bool;
      (** record per-thread event timelines in the run's {!Obs.t};
          off by default and zero-cost when disabled (cycle counts are
          unaffected either way) *)
  adapt : bool;
      (** online adaptive governor ({!Janus_adapt.Adapt}): demote
          loops that keep failing their checks (or losing cycles) to
          sequential execution after a few bad invocations, probe them
          periodically for re-promotion, and run unprofiled
          Dynamic-class loops' first invocations under the dependence
          profiler's shadow memory (training-free mode). Off by
          default; when off, cycle counts are bit-identical to a
          governor-free build *)
}

(** Build a configuration; the defaults reproduce the paper's full
    Janus setup on 8 threads. *)
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

(** Cycle breakdown of a run, the categories of Fig. 8. *)
type breakdown = {
  seq_cycles : int;          (** sequential application execution *)
  par_cycles : int;          (** max-worker time of parallel regions *)
  init_finish_cycles : int;  (** thread start/stop, context copies *)
  translate_cycles : int;    (** main-thread DBM translation *)
  check_cycles : int;        (** runtime array-bounds checks *)
}

(** Why a run stopped before the program halted. [loop] is the loop id
    the runtime was executing when the budget ran out, when known. *)
type abort =
  | Out_of_fuel of { addr : int; loop : int option }

(** Result of executing a program under any configuration. *)
type result = {
  output : string;           (** everything the guest printed *)
  exit_code : int;
  cycles : int;              (** modelled wall-clock, main thread *)
  icount : int;              (** dynamic instructions, all threads *)
  breakdown : breakdown;
  stats : Dbm.stats option;  (** DBM counters; [None] for native runs *)
  schedule_size : int;       (** rewrite-schedule bytes (Fig. 10) *)
  executable_size : int;     (** JX image bytes *)
  selected_loops : int list;
      (** loop ids the (gated) schedule deploys, in ascending order *)
  demoted_loops : int list;
      (** loop ids the schedule verifier degraded to sequential
          execution (empty under [verify = false]) *)
  checks_per_loop : (int * int) list;
      (** loop id -> pairwise range comparisons (Table I) of each
          deployed loop's bounds check, in ascending loop order *)
  stm_commits : int;
  stm_aborts : int;
  mem_digest : string;
      (** digest of the final globals + allocated heap
          ({!Janus_vm.Run.mem_digest}): together with {!field:output}
          this is the run's observable architectural state, and any two
          configurations executing one program must agree on it *)
  aborted : abort option;
      (** set when the run was truncated (fuel exhaustion) instead of
          halting; the partial output/cycles are still reported *)
  obs : Obs.t option;
      (** the run's tracing/metrics registry ([None] for native runs):
          the {!field:breakdown} is derived from its [dbm.*] counters,
          and event timelines are present when [config.trace] was on *)
  governor : Adapt.t option;
      (** the adaptive governor's final ledgers, when [config.adapt]
          was on — {!Adapt.snapshot} and {!Adapt.pp_report} read it *)
}

(** Native execution: the baseline every figure normalises against. *)
val run_native :
  ?fuel:int -> ?input:int64 list -> ?model_cache:bool ->
  Janus_vx.Image.t -> result

(** Execution under the unmodified DBM (the "DynamoRIO" bar).
    [trace] enables event recording on the run's {!Obs.t}. *)
val run_dbm_only :
  ?fuel:int -> ?input:int64 list -> ?trace:bool -> Janus_vx.Image.t -> result

(** The Fig. 8 cycle decomposition as a view over a metrics registry's
    [dbm.*] counters; [cycles] is the run's main-thread total. *)
val breakdown_of_metrics : Obs.t -> cycles:int -> breakdown

(** Loop selection outcome: the loops to parallelise (with their
    scheduling policy) and the per-loop rejection reasons. *)
type selection = Pipeline.selection = {
  chosen : (Loopanal.report * Desc.policy) list;
  rejected : (int * string) list;
}

(** Select loops from an analysis given optional profile data, applying
    the configuration's eligibility and profitability filters. *)
val select :
  cfg:config ->
  Analysis.t ->
  coverage:Profiler.coverage option ->
  deps:Profiler.deps option ->
  selection

(** Everything the static side produces for one binary: analysis,
    training-run profiles, selection and the rewrite schedule. *)
type prepared = {
  p_image : Janus_vx.Image.t;
  p_analysis : Analysis.t;
  p_coverage : Profiler.coverage option;
  p_deps : Profiler.deps option;
  p_selection : selection;
  p_schedule : Schedule.t;
  p_evidence : Pipeline.evidence option;
      (** the fleet evidence the selection consumed, when prepared
          from an aggregate instead of a training run *)
}

(** Stages 1-2 of Fig. 1(a): static analysis, optional profiling on the
    training input, loop selection, schedule generation — a thin
    composition of the {!Pipeline} stages. [store] (default
    {!Pipeline.default_store}) memoises each stage's artifact under its
    content key, so evaluation sweeps share the static-side work.

    [evidence] substitutes aggregated fleet evidence
    ({!Pipeline.evidence}) for the training profile: no profiling run
    happens, selection consumes the merged coverage and pessimistic
    dependence verdicts, and the schedule is cached under a key that
    includes the evidence generation. Omitted, the behaviour (and every
    cache key) is bit-identical to a pgo-free build. *)
val prepare :
  ?cfg:config ->
  ?train_input:int64 list ->
  ?evidence:Pipeline.evidence ->
  ?store:Pipeline.store ->
  ?pool:Janus_pool.Pool.t ->
  Janus_vx.Image.t ->
  prepared

(** The verification gate: with [cfg.verify], the (possibly reduced)
    schedule, the loops demoted to sequential and the findings of
    {!Janus_verify.Verify.check_and_demote}; without, [schedule]
    unchanged, [[]] and [[]]. Given a [store], the verdict is the
    memoised {!Pipeline.verify} artifact there; omitted, it is computed
    afresh and kept nowhere, so only a caller that passes a store shares
    verdicts. *)
val gate :
  cfg:config ->
  ?store:Pipeline.store ->
  ?pool:Janus_pool.Pool.t ->
  Janus_vx.Image.t ->
  Schedule.t ->
  Schedule.t * int list * Janus_verify.Verify.finding list

(** Stage 3: execute under the DBM with the parallelisation schedule.
    Reusable with different thread counts on one {!prepared}. The
    schedule first passes {!gate} on [store], so a sweep over one
    {!prepared} on one store verifies its schedule once. As in
    {!run_scheduled}, the result's [selected_loops] and
    [checks_per_loop] are read from the gated schedule's rules. With
    [cfg.adapt], a checked loop enrols in the governor as profiled when
    the prepared run has dependence profiles, and a loop the fleet
    evidence marks suspect starts in probation. *)
val run_parallel :
  ?cfg:config ->
  ?input:int64 list ->
  ?store:Pipeline.store ->
  ?pool:Janus_pool.Pool.t ->
  prepared ->
  result

(** Run under the DBM with a pre-generated rewrite schedule (e.g.
    deserialised from disk): the paper's deployment model, where the
    schedule ships next to the binary and no analysis happens at run
    time. The schedule first passes {!gate}, storeless. Both entry
    points report the loops the gated schedule deploys (its LOOP_INIT
    and LOOP_FISSION rules), in ascending order, and each one's bounds
    check comparisons; no profile ships with the schedule, so with
    [cfg.adapt] a checked loop starts in the governor's training-free
    sampling state. *)
val run_scheduled :
  ?cfg:config ->
  ?input:int64 list ->
  ?pool:Janus_pool.Pool.t ->
  Janus_vx.Image.t ->
  Schedule.t ->
  result

(** The whole pipeline: {!prepare} on the training input, then
    {!run_parallel} on the reference input, both given [store]. *)
val parallelise :
  ?cfg:config ->
  ?train_input:int64 list ->
  ?input:int64 list ->
  ?evidence:Pipeline.evidence ->
  ?store:Pipeline.store ->
  ?pool:Janus_pool.Pool.t ->
  Janus_vx.Image.t ->
  result

(** [speedup ~native ~run] is [native.cycles / run.cycles]. *)
val speedup : native:result -> run:result -> float
