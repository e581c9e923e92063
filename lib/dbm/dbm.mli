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

(** How one execution of a fragment ends. *)
type outcome =
  | Next      (** control continues at the address in [ctx.rip] *)
  | Halted    (** the program exited or halted *)
  | Yielded   (** an event handler stopped the thread *)

(** What a fragment executes. A basic block runs its slots, in order,
    through the slot loop, which matches on each slot's instruction at
    every execution ({!Janus_vm.Semantics.exec_costed}). A trace runs
    as one chain of closures compiled from its slots when it is built
    ({!Janus_vm.Semantics.compile}), each specialised on its
    instruction's operand shapes and tail-calling the next; an
    event-bearing slot fires its rules from a closure of its own. Both
    give the same registers, memory, cycles, counters and events. *)
type code = Block of slot array | Trace of (Machine.t -> outcome)

(** A code-cache fragment: one translated basic block (or trace). *)
type fragment = {
  f_start : int;
  f_code : code;
  f_ends_indirect : bool;
      (** the last slot is an indirect jump or call, or a return, so
          the next dispatch pays the indirect cost (fixed at
          translation) *)
  mutable f_execs : int;
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

(** What an event handler tells the executor to do. *)
type action =
  | Continue        (** keep executing the slot *)
  | Divert of int   (** transfer control to an application address *)
  | Stop_thread     (** leave the execution loop (thread yield) *)

(** The rules one thread kind applies at one address. *)
type site = {
  r_all : Rule.t list;     (** in schedule order *)
  r_events : Rule.t list;  (** the event rules among them *)
}

type t = {
  prog : Program.t;
  main_sites : site Machine.Int_table.t;
      (** the rule hash table as the main thread's caches see it: an
          entry per address some main-thread rule triggers at, split
          from the schedule once, at {!create} *)
  worker_sites : site Machine.Int_table.t;  (** the same for workers *)
  schedule : Schedule.t option;
  stats : stats;
  promote_threshold : int;
      (** executions before a hot fragment is promoted to a trace
          (default {!Janus_vx.Cost.trace_head_threshold}; [1] promotes
          eagerly, [max_int] disables promotion) *)
  mutable obs : Obs.t option;  (** tracing/metrics sink, off by default *)
  mutable on_event : t -> thread_kind -> Machine.t -> Rule.t -> action;
  mutable walked : slot array;
      (** the translator's scratch slots, reused by every fragment it
          builds *)
}

(** A per-thread code cache. *)
type cache = {
  kind : thread_kind;
  frags : fragment Machine.Int_table.t;  (** keyed by [f_start] *)
  mutable last_indirect : bool;
  skip : (int -> bool) option;
      (** loop fission: instruction addresses this cache's fragments
          elide (translated as zero-length no-ops, so a fissioned
          sub-loop executes only its own group). Control flow is never
          elided. *)
}

(** Create a DBM over a loaded program, indexing the schedule's rules
    by trigger address and thread kind. [obs] attaches a
    tracing/metrics sink; when absent (or when tracing is disabled on
    it) the DBM behaves exactly as an uninstrumented one. *)
val create :
  ?schedule:Schedule.t -> ?obs:Obs.t -> ?promote_threshold:int ->
  Program.t -> t

(** [new_cache ?skip kind] makes an empty cache; [skip] installs a
    fission elision filter (see {!cache.skip}). *)
val new_cache : ?skip:(int -> bool) -> thread_kind -> cache

(** Discard every fragment (used when a failed bounds check forces the
    modified code to be reloaded, §II-E1). [now] timestamps the flush
    event when tracing. *)
val flush_cache : ?now:int -> t -> cache -> unit

(** Does this rule's effect apply to caches of this thread kind? *)
val applies : thread_kind -> Rule.t -> bool

(** Apply a transformation rule to an instruction (exposed for unit
    tests of the rewrite handlers). *)
val apply_transform : Rule.t -> Insn.t -> Insn.t

(** Translate the basic block at an address into [cache], applying
    transformation rules and attaching events; translation cost is
    charged to [ctx]. Trace promotion during {!run} builds traces with
    the same walk, continuing through event-free direct jumps. *)
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
