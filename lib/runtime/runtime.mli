(** The Janus parallel runtime (§II-E): virtual hardware threads with
    private stacks, TLS and code caches; chunked and round-robin
    iteration scheduling; runtime array-bounds checks with sequential
    fallback; software-transactional execution of dynamically
    discovered code.

    Timing uses the deterministic virtual-multicore model: a parallel
    invocation costs [init + max(worker cycles) + finish] on the main
    thread's clock. Workers really execute their iterations against
    shared guest memory, so results are bit-identical to sequential
    execution. *)

open Janus_vm
module Rule = Janus_schedule.Rule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr
module Schedule = Janus_schedule.Schedule
module Dbm = Janus_dbm.Dbm
module Obs = Janus_obs.Obs
module Adapt = Janus_adapt.Adapt

type config = {
  threads : int;
  force_policy : Desc.policy option;  (** override descriptors (ablation) *)
  stm_everywhere : bool;
      (** ablation: buffer every worker access transactionally instead
          of speculating only on discovered code (§II-E2) *)
  fuel : int;
      (** per-chunk worker instruction budget; exhausting it raises
          {!Worker_out_of_fuel} instead of spinning forever *)
}

val default_config : config

type t = {
  dbm : Dbm.t;
  config : config;
  main_cache : Dbm.cache;
  worker_caches : Dbm.cache array;
  loop_sequential : (int, bool) Hashtbl.t;
      (** loop id -> this invocation's check failed: run serially *)
  loop_in_seq : (int, bool) Hashtbl.t;
      (** loop id -> currently inside a sequential-fallback invocation *)
  loop_invocations : (int, int) Hashtbl.t;
  fission_caches : (int * int, Dbm.cache array) Hashtbl.t;
      (** (loop id, phase) -> worker caches whose skip filter elides
          the other fission sub-loops' instructions; built on first
          use, then reused across invocations *)
  mutable fission_phases : int;
      (** fission sub-loop instances executed; published as
          [rt.fission_phases] *)
  mutable current_loop : int;  (** loop id the workers are executing *)
  skip_tx : (int * int, unit) Hashtbl.t;
      (** (worker, call addr) pairs re-executing non-speculatively
          after an abort; cleared at every LOOP_INIT so stale entries
          never suppress speculation in a later invocation *)
  mutable stm_overflows : int;
  adapt : Adapt.t option;
      (** online adaptive governor; [None] leaves every decision to
          the static schedule, bit-identical to a governor-free build *)
  gov_seq : (int, int) Hashtbl.t;
      (** loop id -> main cycles when a governor-sequential (or
          sampling) invocation began; consumed at LOOP_FINISH *)
  inv_checks : (int, int * int) Hashtbl.t;
      (** loop id -> (check evaluations, check cycles) of the current
          invocation; consumed and cleared at every LOOP_INIT so stale
          counts never bleed into a later invocation *)
  mutable max_inv_checks : int;
      (** most check evaluations ever attributed to one invocation;
          published as [rt.max_inv_checks] — above 1 means the
          per-invocation stats leaked *)
  mutable last_sum_cycles : int;
      (** summed worker cycles of the most recent parallel invocation *)
  loop_descs : Desc.loop_desc Machine.Int_table.t;
  check_descs : Desc.check_desc Machine.Int_table.t;
  fission_descs : Desc.fission_desc Machine.Int_table.t;
      (** descriptor-pool offset -> the loop, bounds-check or fission
          descriptor there, decoded when a rule carrying it first fires
          and reused by every later firing of the run; a descriptor
          that does not decode is never stored, so it raises at each
          firing *)
}

(** Create a runtime over a DBM, allocating per-thread stack and TLS
    regions. Call {!install} to route the DBM's events through it.
    [adapt] hands invocation decisions for governed loops to an online
    governor (see {!Janus_adapt.Adapt}); loops the governor does not
    know about behave exactly as without it. *)
val create : ?config:config -> ?adapt:Adapt.t -> Dbm.t -> t

(** The governor passed at creation, if any. *)
val governor : t -> Adapt.t option

(** Install this runtime as the DBM's event handler. *)
val install : t -> unit

(** An {!Rexpr.env} reading the given machine context. *)
val rexpr_env : Machine.t -> Rexpr.env

(** {1 Iteration-space arithmetic (exposed for property tests)} *)

(** Number of iterations of [iv = init; while (iv cond bound); iv += step]. *)
val trip_count :
  init:int64 -> bound:int64 -> step:int64 -> cond:Janus_vx.Cond.t -> int

(** The TLS bound-slot value making the rewritten compare exit exactly
    at [end_iv] (exclusive); the compare tests [(iv + adjust) cond slot]. *)
val bound_slot_value :
  end_iv:int64 -> step:int64 -> cond:Janus_vx.Cond.t -> adjust:int64 -> int64

(** A contiguous range of canonical IV values, [c_end] exclusive. *)
type chunk = { c_start : int64; c_end : int64 }

(** Equal contiguous chunks, one list per thread. *)
val chunked_chunks :
  init:int64 -> step:int64 -> trips:int -> threads:int -> chunk list array

(** Round-robin blocks of [block] iterations distributed over threads. *)
val rr_chunks :
  init:int64 -> step:int64 -> trips:int -> threads:int -> block:int ->
  chunk list array

(** {1 Runtime checks and reductions (exposed for tests)} *)

(** Evaluate an array-bounds check against machine state; [true] means
    every written range is disjoint from every other accessed range
    (identical ranges denote a same-index in-place update and pass). *)
val eval_check : t -> Machine.t -> Desc.check_desc -> bool

val read_loc : Machine.t -> Desc.location -> int64
val write_loc : Machine.t -> Desc.location -> int64 -> unit
val redop_identity : Desc.redop -> int64
val redop_combine : Desc.redop -> int64 -> int64 -> int64

(** {1 STM boundaries (§II-E2, §II-E3)} *)

(** TX_START at a call site: checkpoint the context and install a
    transaction, unless this site is re-executing after an abort. *)
val tx_start : t -> int -> Machine.t -> int -> Dbm.action

(** TX_FINISH: value-based validation of buffered reads; commit stores
    in thread order, or roll back and re-execute non-speculatively. *)
val tx_finish : t -> int -> Machine.t -> Dbm.action

exception Worker_escaped of int

(** A worker exhausted its DBM fuel at (worker, application address). *)
exception Worker_out_of_fuel of int * int

(** Execute one selected loop in parallel from the main context.
    [caches] substitutes the runtime's worker caches (fission phases
    pass caches that elide the other sub-loops), [max_threads] caps
    the invocation's parallelism, and [iv_range] supplies a
    pre-evaluated (init, bound) pair instead of re-evaluating the
    descriptor's expressions against the current context. *)
val run_parallel_loop :
  ?caches:Dbm.cache array ->
  ?max_threads:int ->
  ?iv_range:int64 * int64 ->
  t -> Machine.t -> Desc.loop_desc -> bound_adjust:int64 ->
  [ `Parallel of int | `Sequential ]

(** Execute a fissioned loop (LOOP_FISSION): every sub-loop group runs
    as one consecutive full-range loop instance — the DOALL product on
    all threads, the sequential residue on one. *)
val run_fission :
  t -> Machine.t -> Desc.fission_desc -> [ `Parallel of int | `Sequential ]

(** Mirror runtime state (per-loop invocation counts as
    [loop.<id>.invocations], [rt.stm_overflows]) and the DBM's stats
    into the metrics registry. Called once at publish time. *)
val publish_metrics : t -> Obs.t -> unit
