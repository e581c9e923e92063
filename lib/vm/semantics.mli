(** Instruction semantics for VX64, shared by the plain VM interpreter
    and the DBM's code-cache executor.

    Memory accesses respect the context's transaction (speculative
    buffering, §II-E2) and observation hook (dependence profiling), so
    the STM and profiler interpose without duplicating the interpreter. *)

open Janus_vx

(** Where control goes after one instruction. *)
type control =
  | Fall          (** fall through to the next instruction *)
  | Jump          (** control transferred: [ctx.rip] holds the target *)
  | Stop          (** the program exited or halted *)

exception Div_by_zero of int  (** rip of the faulting division *)

(** Effective address of a memory operand in a context. *)
val addr_of_mem : Machine.t -> Operand.mem -> int

(** 64-bit load/store honouring the installed transaction (buffered)
    and observer (recorded); exposed for the runtime and tests. With no
    transaction, observer or cache model installed they take an inlined
    fast path with the same results and {!Memory.Fault} addresses. *)
val raw_read : Machine.t -> int -> int64
val raw_write : Machine.t -> int -> int64 -> unit

val eval_cond : Machine.t -> Cond.t -> bool

(** Set the packed flag word as a compare of the two values / as a
    flag-setting result would. *)
val set_flags_cmp : Machine.t -> int64 -> int64 -> unit
val set_flags_result : Machine.t -> int64 -> unit

val push : Machine.t -> int64 -> unit
val pop : Machine.t -> int64

(** Execute one instruction whose encoded length is [len]: updates
    registers, flags, memory and the cycle/instruction counters, and
    returns where control goes. A taken branch, call or return writes
    its target into [ctx.rip] and returns {!Jump}; on {!Fall} and
    {!Stop} [ctx.rip] still holds the instruction's own address, and
    advancing it is the caller's. *)
val exec : Machine.t -> Insn.t -> len:int -> control

(** {!exec} with the instruction's {!Cost.of_insn} precomputed by the
    caller (translated slots compute it once at translation time
    instead of re-matching on every execution). [cost] must equal
    [Cost.of_insn insn] for the cycle model to stay exact. *)
val exec_costed : Machine.t -> Insn.t -> len:int -> cost:int -> control

(** [compile insn ~addr ~len ~cost ~jumped ~stopped next] pre-resolves
    the slot at [addr] (instruction [insn] of encoded length [len],
    charged [cost]) into a closure. Run on a context, the closure sets
    [ctx.rip] to [addr] and does what {!exec_costed} does, with the
    same memory accesses in the same order and the transaction,
    observer and cache-model hooks tested at each access; then, where
    {!exec_costed} returns {!Fall}, it tail-calls [next], and it
    returns [jumped] for {!Jump} and [stopped] for {!Stop}. Chaining
    the slots of a straight-line fragment back to front makes one
    closure per slot that runs the whole fragment. Shapes without a
    specialised form call {!exec_costed}. *)
val compile :
  Insn.t -> addr:int -> len:int -> cost:int -> jumped:'a -> stopped:'a ->
  (Machine.t -> 'a) -> Machine.t -> 'a
