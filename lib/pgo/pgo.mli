(** janus_pgo: persistent fleet-scale profile-guided optimisation.

    The paper's loop is profile-guided but train-once: a single
    training run fixes the dependence verdicts forever, and the online
    governor's evidence (demotions, abort rates, realised work) dies
    with the process. This module closes the loop: every run — an
    offline profiler training run, a governed production run, or a
    fuzzer kernel acting as one member of an input fleet — exports its
    per-loop ledger as a {e run entry}; entries accumulate in a
    versioned on-disk store keyed by image digest; a commutative,
    associative, idempotent merge folds any number of runs into one
    aggregate; and the aggregate feeds the pipeline's select stage as
    {!Janus_core.Pipeline.evidence}, re-deriving schedules whenever the
    merged evidence shifts a verdict. {!Iterate} drives the cycle to a
    fixed point: run, collect, merge, re-schedule, until the schedule
    digest is stable or the improvement drops below a threshold.

    Merge is a set union over content-addressed run entries (a run's id
    is the digest of its canonical encoding), so aggregation over a
    fleet is deterministic in any arrival order and re-ingesting a
    profile is a no-op — the properties the test suite proves with
    QCheck. *)

module Profiler = Janus_profile.Profiler
module Adapt = Janus_adapt.Adapt
module Pipeline = Janus_core.Pipeline
module Janus = Janus_core.Janus
module Image = Janus_vx.Image

(** {1 Run entries and profiles} *)

(** Where a run entry's numbers came from. [Training] and [Fleet]
    entries carry profiler coverage and are the only contributors to
    the aggregate's coverage sums; [Governed] entries carry the online
    governor's ledger (checks, STM, fallbacks, demotions) and
    contribute dependence and suspicion evidence only. *)
type source = Training | Fleet | Governed

val source_name : source -> string

(** Per-loop ledger of one run: coverage counters (profiler runs),
    dependence observations, and the governor's check/STM/abort/
    fallback statistics with its realised-work and demotion history
    (governed runs). Absent facets are zero. *)
type ledger = {
  l_lid : int;
  l_self_insns : int;
  l_invocations : int;
  l_iterations : int;
  l_observed : bool;       (** dependence instrumentation saw the loop *)
  l_dep : bool;            (** cross-iteration dependence observed *)
  l_checks_passed : int;
  l_checks_failed : int;   (** each one is a proven runtime overlap *)
  l_commits : int;
  l_aborts : int;
  l_fallbacks : int;
  l_par_work : int;        (** realised worker cycles *)
  l_par_cost : int;        (** main-thread cycles those runs paid *)
  l_demotions : int;
  l_promotions : int;
  l_sampled_dep : bool;    (** online shadow-memory sample saw a dep *)
}

(** One run's export. [run_id] is the hex digest of the entry's
    canonical encoding — content addressing is what makes the merge a
    set union. *)
type run = private {
  run_id : string;
  r_source : source;
  r_input : string;        (** input key, e.g. ["250"]; informational *)
  r_total_insns : int;
  r_loops : ledger list;   (** sorted by [l_lid] *)
}

(** All evidence ever gathered for one binary. *)
type t = {
  p_image : string;        (** {!Pipeline.image_key} of the binary *)
  p_runs : run list;       (** sorted by [run_id], no duplicates *)
}

val empty : string -> t

(** Total run entries. *)
val runs : t -> int

(** {1 Constructors} *)

(** Normalise ledgers (sort by lid, drop duplicates keeping the first)
    and mint the content-addressed [run_id]. *)
val make_run :
  source:source -> input:string -> total_insns:int -> ledger list -> run

(** A run entry from an offline profiler run (training or fleet). *)
val run_of_profile :
  source:source ->
  input:string ->
  coverage:Profiler.coverage option ->
  deps:Profiler.deps option ->
  run

(** A run entry from a governed run's ledger — the {!Adapt} export
    hook. [total_insns] is the run's dynamic instruction count. *)
val run_of_governor :
  input:string -> total_insns:int -> Adapt.loop_stats list -> run

(** Insert a run (no-op if an entry with the same [run_id] exists). *)
val add : t -> run -> t

(** {1 Merge}

    [merge a b] unions the run sets. Commutative, associative and
    idempotent by construction (runs are content-addressed and kept
    sorted), so fleet aggregation is deterministic in any order.
    @raise Invalid_argument when the image digests differ. *)
val merge : t -> t -> t

val equal : t -> t -> bool

(** {1 The aggregate view} *)

type verdict =
  | V_parallel   (** observed, never a dependence: safe to speculate *)
  | V_dep        (** pessimistic join: {e some} run saw a dependence
                     (profiled, sampled, or a failed bounds check) *)
  | V_unobserved

val verdict_name : verdict -> string

(** Invocation-weighted totals for one loop across every run. *)
type agg = {
  a_lid : int;
  a_runs : int;            (** run entries mentioning this loop *)
  a_invocations : int;
  a_iterations : int;
  a_self_insns : int;
  a_checks_failed : int;
  a_fallbacks : int;
  a_demotions : int;
  a_par_work : int;
  a_par_cost : int;
  a_verdict : verdict;
  a_suspect : bool;        (** governor history: demoted or failed
                               checks in some run *)
}

(** Per-loop aggregates, sorted by loop id. *)
val aggregate : t -> agg list

(** The aggregate as pipeline evidence: summed coverage over the
    profiler-sourced runs, the pessimistic dependence verdicts, the
    suspect list, and the generation digest (the digest of the profile's
    canonical encoding — equal profiles yield equal generations, so
    schedule caches keyed on it stay warm exactly while the evidence is
    unchanged). Profiles with no profiler-sourced runs yield
    [ev_coverage = None]. *)
val evidence : t -> Pipeline.evidence

(** The generation digest alone. *)
val generation : t -> string

(** {1 The versioned codec (.jprof)}

    A {!Janus_core.Envelope}, stamped with {!Janus_core.Version.version}
    (the codec is explicit, so profiles survive rebuilds):
    {v JPROF1\n <version>\n <image digest>\n <payload md5>\n
       <len>\n <payload> v}
    The payload is a hand-rolled binary encoding of the run set in
    canonical order, so [to_bytes] is deterministic and
    [of_bytes (to_bytes p) = p]. *)

exception Bad_profile of string

val to_bytes : t -> bytes

(** @raise Bad_profile on bad magic, stale version, digest or length
    mismatch, truncation, or malformed payload — and on nothing else. *)
val of_bytes : bytes -> t

(** {1 The persistent store}

    One [<image>.jprof] file per image digest under a directory shared
    by any number of producers. [save] is read-merge-write published
    atomically ({!Janus_core.Envelope.publish}); a corrupt, truncated or
    wrong-version file is counted under {!Store.errors}, treated
    exactly as if absent, and overwritten (repaired) by the next
    [save]. An image name that is not non-empty lowercase hex
    ({!Pipeline.image_key}'s form) raises [Bad_profile]: it would name
    a path. *)
module Store : sig
  type profile := t

  type t

  (** Open (creating if missing) the store rooted at a directory. *)
  val open_ : string -> t

  (** The merged profile for one image, or [None] when nothing valid
      is stored. *)
  val load : t -> image:string -> profile option

  (** Merge [profile] with what is stored for its image and persist the
      union; returns the merged profile.
      @raise Sys_error when the file cannot be published. *)
  val save : t -> profile -> profile

  (** Run entries stored for one image (0 when absent). *)
  val runs : t -> image:string -> int

  (** Malformed or stale-version files seen so far (each treated as
      absent — published as the [pgo.store.errors] counter). *)
  val errors : t -> int

  (** Evidence for one image, if any profile is stored. *)
  val evidence_for : t -> image:string -> Pipeline.evidence option

  (** Delete stored profiles oldest-mtime-first: those beyond
      [max_age] seconds, then the oldest until the directory fits
      [max_bytes]. Files this process wrote are never deleted. Returns
      the number of files removed. *)
  val prune : ?max_age:int -> ?max_bytes:int -> t -> int
end

(** {1 Collection}

    One training run ({!Profiler.run}) over [image] on [input], its
    coverage and dependence profiles folded into a {!run} and saved.
    Returns the merged profile. *)
val collect :
  ?fuel:int ->
  ?source:source ->
  store:Store.t ->
  input:int64 list ->
  Image.t ->
  t

(** Export a governed run's ledger ({!Janus.result} with a governor)
    into the store; [None] when the run carried no governor. *)
val collect_governed :
  store:Store.t -> input:int64 list -> Image.t -> Janus.result -> t option

(** {1 The iterate-until-converged driver} *)

module Iterate : sig
  (** One round's record. Round 0 is the train-once baseline (no
      evidence); later rounds prepare from the store's aggregate. *)
  type round = {
    rd_round : int;
    rd_cycles : int;
    rd_schedule_md5 : string;
    rd_selected : int list;     (** loop ids the schedule parallelises *)
    rd_flipped : (int * verdict) list;
        (** loops whose dependence verdict changed vs the previous
            round's evidence *)
    rd_runs : int;              (** store entries after collection *)
    rd_generation : string;     (** evidence generation ("-" round 0) *)
  }

  type outcome = {
    o_rounds : round list;      (** in round order *)
    o_converged : bool;
    o_baseline_cycles : int;    (** round 0 = train-once *)
    o_final_cycles : int;
  }

  val pp_round : Format.formatter -> round -> unit

  (** Run → collect → merge → re-derive until the schedule digest is
      stable across consecutive rounds or the cycle improvement falls
      below [threshold] percent (default 0.5), up to [max_rounds]
      (default 6) evidence-fed rounds after the baseline. [fleet] is
      the input fleet profiled each round (each becomes one run entry —
      content addressing makes re-collection idempotent); [input] is
      the measured reference input; [log] receives one line per round.
      The pipeline store shares analysis artifacts across rounds. *)
  val run :
    ?cfg:Janus.config ->
    ?fuel:int ->
    ?max_rounds:int ->
    ?threshold:float ->
    ?log:(string -> unit) ->
    ?pipeline_store:Pipeline.store ->
    store:Store.t ->
    train_input:int64 list ->
    fleet:int64 list list ->
    input:int64 list ->
    Image.t ->
    outcome
end
