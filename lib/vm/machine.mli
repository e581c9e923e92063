(** A VX64 machine context: register file, flags, instruction pointer
    and cycle counters. One context per virtual hardware thread; all
    contexts of a run share one {!Memory.t} and output buffer.

    Hot state is flat and unboxed: the general-purpose register file is
    one [Bytes.t] ([gp_count * 8] bytes, so a register write is an
    8-byte store with no box and no write barrier), the FP register
    file is one [float array] ([fp_count * 4] lanes), and the four
    condition flags live packed in one mutable int whose bit layout
    {!Semantics} owns. Forks, checkpoints and rollbacks are single
    copies or blits. *)

open Janus_vx

(** A word-based software transaction (§II-E2): while installed,
    memory accesses buffer stores and record read versions. The
    checkpoint covers registers, FP registers, rip, condition flags
    and the heap bump pointer, so a rollback restores the complete
    architectural context. *)
type txn = {
  treads : (int, int64) Hashtbl.t;   (** address -> value observed *)
  twrites : (int, int64) Hashtbl.t;  (** address -> buffered value *)
  mutable taborted : bool;
  checkpoint_regs : Bytes.t;
  checkpoint_fregs : float array;
  checkpoint_rip : int;
  checkpoint_flags : int;
  checkpoint_brk : int;
}

(** Int-keyed table of warm cache lines. *)
module Lines : Hashtbl.S with type key = int

type t = {
  regs : Bytes.t;
      (** register [r] in bytes [8 * Reg.gp_index r] to [+7], host byte
          order; read and write it through {!get}/{!set} *)
  fregs : float array;         (** flat: register r, lane l at r*4+l *)
  mutable flags : int;
      (** packed condition flags; {!Semantics} sets and tests the bits *)
  mutable rip : int;
  mem : Memory.t;
  mutable cycles : int;        (** modelled cycles *)
  mutable icount : int;        (** retired instructions *)
  mutable halted : bool;
  mutable exit_code : int;
  out : Buffer.t;              (** program output (shared) *)
  input : int64 Queue.t;       (** values returned by sys_read_int *)
  mutable txn : txn option;    (** speculative access buffering *)
  mutable observe : (rw -> addr:int -> bytes:int -> unit) option;
      (** memory-access hook for the dependence profiler *)
  mutable brk : int;           (** heap bump pointer *)
  mutable model_cache : bool;
      (** charge {!Cost.cache_miss} on cold-line accesses *)
  warm : unit Lines.t;           (** warm cache lines (line numbers) *)
  warm_fifo : int Queue.t;       (** insertion order, for eviction *)
}

and rw = Read | Write

val create : ?out:Buffer.t -> Memory.t -> t

(** A worker context sharing memory, output and heap state with
    [parent] but owning its registers, flags and counters. *)
val fork : t -> t

val get : t -> Reg.gp -> int64
val set : t -> Reg.gp -> int64 -> unit
val getf : t -> Reg.fp -> int -> float
val setf : t -> Reg.fp -> int -> float -> unit

(** Checkpoint the architectural context (registers, fregs, rip, flags,
    brk) and install a transaction. *)
val start_txn : t -> txn

(** Restore the checkpointed context and drop the transaction. *)
val rollback : t -> txn -> unit

(** Drop the transaction, keeping the current context. *)
val end_txn : t -> unit

(** {2 Data-cache warmth (prefetch extension)} *)

(** Mark the line containing the address warm (FIFO eviction at
    {!Cost.cache_lines} capacity). What a [Prefetch] hint does. *)
val warm_line : t -> int -> unit

(** Charge a miss if the address's line is cold, then warm it. No-op
    unless [model_cache] is set. *)
val touch_line : t -> int -> unit
