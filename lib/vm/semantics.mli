(** Instruction semantics for VX64, shared by the plain VM interpreter
    and the DBM's code-cache executor.

    Memory accesses respect the context's transaction (speculative
    buffering, §II-E2) and observation hook (dependence profiling), so
    the STM and profiler interpose without duplicating the interpreter. *)

open Janus_vx

(** Where control goes after one instruction. *)
type control =
  | Fall          (** fall through to the next instruction *)
  | Goto of int   (** transfer to an application address *)
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

(** {2 Fused pairs}

    The DBM's superinstructions, one call each. Operands must be
    registers or immediates (destinations registers), which is what
    the DBM fuses; flags and registers end bit-identical to executing
    the two instructions in turn. Cycle, icount and rip bookkeeping is
    the caller's. *)

(** [cmp a, b] then [jcc cond]: sets the flags, returns whether the
    branch is taken. *)
val cmp_jcc : Machine.t -> Operand.t -> Operand.t -> Cond.t -> bool

(** [d op= s] then [cmp a, b]. *)
val alu_cmp :
  Machine.t -> Insn.alu -> Operand.t -> Operand.t -> Operand.t -> Operand.t ->
  unit

(** [mov d1, s1] then [d2 op= s2]. *)
val mov_alu :
  Machine.t -> Operand.t -> Operand.t -> Insn.alu -> Operand.t -> Operand.t ->
  unit

val push : Machine.t -> int64 -> unit
val pop : Machine.t -> int64

(** Execute one instruction whose encoded length is [len]: updates
    registers, flags, memory and the cycle/instruction counters, and
    returns where control goes. Does {e not} advance [ctx.rip] —
    callers own instruction sequencing. *)
val exec : Machine.t -> Insn.t -> len:int -> control

(** {!exec} with the instruction's {!Cost.of_insn} precomputed by the
    caller (translated slots compute it once at translation time
    instead of re-matching on every execution). [cost] must equal
    [Cost.of_insn insn] for the cycle model to stay exact. *)
val exec_costed : Machine.t -> Insn.t -> len:int -> cost:int -> control
