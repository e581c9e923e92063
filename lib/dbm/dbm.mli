(** The dynamic binary modifier (Fig. 2(b)): a DynamoRIO-style code
    cache executing translated basic blocks, consulting the rewrite
    schedule's rule hash table before each block is emitted.

    Transformation rules (MEM_PRIVATISE, LOOP_UPDATE_BOUND,
    MEM_MAIN_STACK) rewrite instructions during translation; all other
    rules attach to slots as {e events} and fire through the installed
    {!field:t.on_event} handler at execution time. Rules sharing an
    address apply in schedule order (§II-A2). *)

open Janus_vx
open Janus_vm
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Obs = Janus_obs.Obs

(** Which thread a code cache belongs to. The main thread receives only
    event rules; workers also receive the parallel transformation
    rules, specialising their private caches per thread (§II-E). *)
type thread_kind = Main | Worker of int

(** One translated instruction in a fragment. *)
type slot = {
  s_insn : Insn.t;           (** possibly rewritten instruction *)
  s_addr : int;              (** original application address *)
  s_len : int;               (** original encoded length *)
  s_cost : int;              (** {!Janus_vx.Cost.of_insn}, precomputed *)
  s_events : Rule.t list;    (** rules fired before executing it *)
}

(** A compiled execution step: one slot, or a fused superinstruction
    covering a hot adjacent pair (compare + conditional branch,
    induction-variable update + bound compare, register move + ALU op).
    Pairs are fused only when both slots are event-free and every
    operand is a register or immediate, so nothing can observe the
    machine between the halves; the fused step charges the sum of the
    halves' precomputed costs, keeping virtual cycles and instruction
    counts bit-identical with fusion on or off. *)
type step =
  | Step of slot
  | Cmp_jcc of { addr : int; a : Operand.t; b : Operand.t; cond : Cond.t;
                 target : int; cost : int }
  | Alu_cmp of { addr : int; op : Insn.alu; d : Operand.t; s : Operand.t;
                 a : Operand.t; b : Operand.t; cost : int }
  | Mov_alu of { addr : int; d1 : Operand.t; s1 : Operand.t; op : Insn.alu;
                 d2 : Operand.t; s2 : Operand.t; cost : int }

(** A code-cache fragment: one translated basic block (or trace). *)
type fragment = {
  f_start : int;
  f_slots : slot array;
  f_steps : step array;      (** what the executor actually runs *)
  f_ends_indirect : bool;
      (** the last slot is an indirect jump or call, or a return, so
          the next dispatch pays the indirect cost (fixed at
          translation) *)
  mutable f_execs : int;
  mutable f_is_trace : bool;
  mutable f_linked : bool;
}

(** Execution counters and modelled overhead cycles. *)
type stats = {
  mutable translated_insns : int;
  mutable fragments_built : int;
  mutable traces_built : int;
  mutable dispatches : int;
  mutable translate_cycles : int;      (** all threads *)
  mutable translate_cycles_main : int; (** main thread only *)
  mutable check_cycles : int;
  mutable init_finish_cycles : int;
  mutable parallel_cycles : int;
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable cache_flushes : int;
}

val new_stats : unit -> stats

(** What an event handler tells the executor to do. *)
type action =
  | Continue        (** keep executing the slot *)
  | Divert of int   (** transfer control to an application address *)
  | Stop_thread     (** leave the execution loop (thread yield) *)

type t = {
  prog : Program.t;
  rules : (int, Rule.t list) Hashtbl.t;  (** the rule hash table *)
  schedule : Schedule.t option;
  stats : stats;
  promote_threshold : int;
      (** executions before a hot fragment is promoted to a trace
          (default {!Janus_vx.Cost.trace_head_threshold}; [1] promotes
          eagerly, [max_int] disables promotion) *)
  fuse : bool;
      (** fuse hot instruction pairs in translated fragments (always on
          outside tests, which turn it off to prove it inert: outputs,
          cycles and memory digests are bit-identical either way) *)
  mutable obs : Obs.t option;  (** tracing/metrics sink, off by default *)
  mutable on_event : t -> thread_kind -> Machine.t -> Rule.t -> action;
}

(** A per-thread code cache. *)
type cache = {
  kind : thread_kind;
  frags : (int, fragment) Hashtbl.t;
  mutable last_indirect : bool;
  mutable skip : (int -> bool) option;
      (** loop fission: instruction addresses this cache's fragments
          elide (translated as zero-length no-ops, so a fissioned
          sub-loop executes only its own group). Control flow is never
          elided. *)
}

(** Create a DBM over a loaded program, indexing the schedule's rules
    by trigger address. [obs] attaches a tracing/metrics sink; when
    absent (or when tracing is disabled on it) the DBM behaves exactly
    as an uninstrumented one. *)
val create :
  ?schedule:Schedule.t -> ?obs:Obs.t -> ?promote_threshold:int ->
  ?fuse:bool -> Program.t -> t

(** [new_cache ?skip kind] makes an empty cache; [skip] installs a
    fission elision filter (see {!cache.skip}). *)
val new_cache : ?skip:(int -> bool) -> thread_kind -> cache

(** Trace-event thread id of a thread kind: 0 for {!Main}, [w + 1] for
    [Worker w]. *)
val tid_of : thread_kind -> int

(** Discard every fragment (used when a failed bounds check forces the
    modified code to be reloaded, §II-E1). [now] timestamps the flush
    event when tracing. *)
val flush_cache : ?now:int -> t -> cache -> unit

val rules_at : t -> int -> Rule.t list

(** Does this rule's effect apply to caches of this thread kind? *)
val applies : thread_kind -> Rule.t -> bool

(** Apply a transformation rule to an instruction (exposed for unit
    tests of the rewrite handlers). *)
val apply_transform : Rule.t -> Insn.t -> Insn.t

(** Translate the basic block at an address into [cache], applying
    transformation rules and attaching events; translation cost is
    charged to [ctx]. *)
val translate : t -> cache -> Machine.t -> int -> fragment

exception Bad_pc of int

(** Run [ctx] under the DBM until the program halts, an event handler
    yields the thread, or [fuel] dispatch steps are exhausted.
    [`Out_of_fuel addr] carries the application address that was about
    to be dispatched — a typed result rather than an exception, so
    callers can produce a diagnostic (with trace context) instead of a
    backtrace. *)
val run :
  ?fuel:int -> t -> cache -> Machine.t ->
  [ `Halted | `Yielded | `Out_of_fuel of int ]

(** Mirror {!field:t.stats} into the metrics registry under the
    [dbm.*] counter names. Called at publish time (end of run), never
    on hot paths. *)
val publish_metrics : t -> Obs.t -> unit
