(** A VX64 machine context: register file, flags, instruction pointer
    and cycle counters. One context per hardware thread; all contexts
    of a run share one {!Memory.t} and output buffer.

    The hot state is flat and unboxed: the general-purpose register
    file is one [Bytes.t] of [gp_count * 8] bytes (a register write is
    an 8-byte store, with no box and no write barrier), the FP register
    file is one [float array] of [fp_count * 4] lanes, and the four
    condition flags are packed into one mutable int whose bit layout
    {!Semantics} owns. Forks, checkpoints and rollbacks are single
    copies or blits. *)

open Janus_vx

(* Register [i] lives in bytes [8*i, 8*i+8) in host byte order.
   {!Semantics} reads and writes the same layout with its own copies of
   these primitives (see the comment there), so the two must agree. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** A word-based software transaction (paper §II-E2). While installed,
    rewritten memory accesses buffer stores and record read versions;
    validation is value-based, commit is in thread order. The
    checkpoint covers the whole architectural context — registers,
    FP registers, rip, condition flags and the heap bump pointer — so
    an aborted transaction cannot leak flag or brk state from the
    rolled-back path into the retry. *)
type txn = {
  treads : (int, int64) Hashtbl.t;   (* address -> value observed *)
  twrites : (int, int64) Hashtbl.t;  (* address -> buffered value *)
  mutable taborted : bool;
  checkpoint_regs : Bytes.t;
  checkpoint_fregs : float array;
  checkpoint_rip : int;
  checkpoint_flags : int;
  checkpoint_brk : int;
}

(* Identity-hashed int-keyed table: the warm cache lines (keyed by line
   number; eviction order lives in [warm_fifo], so iteration order is
   never observable) and the DBM's fragment caches (keyed by address).
   No polymorphic hash or compare per lookup. *)
module Int_table = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash (l : int) = l
  end)

type t = {
  regs : Bytes.t;              (* register i at bytes 8*i .. 8*i+7 *)
  fregs : float array;         (* flat: register r, lane l at r*4+l *)
  mutable flags : int;         (* packed condition flags (Semantics) *)
  mutable rip : int;
  mem : Memory.t;
  mutable cycles : int;
  mutable icount : int;
  mutable halted : bool;
  mutable exit_code : int;
  out : Buffer.t;
  input : int64 Queue.t;       (* values returned by sys_read_int *)
  mutable txn : txn option;    (* set while executing speculative accesses *)
  mutable observe : (rw -> addr:int -> bytes:int -> unit) option;
  mutable brk : int;           (* heap bump pointer *)
  mutable model_cache : bool;  (* charge Cost.cache_miss on cold lines *)
  warm : unit Int_table.t;        (* warm cache lines (line number) *)
  warm_fifo : int Queue.t;        (* insertion order, for eviction *)
}

and rw = Read | Write

let create ?(out = Buffer.create 256) mem =
  {
    regs = Bytes.make (Reg.gp_count * 8) '\000';
    fregs = Array.make (Reg.fp_count * 4) 0.0;
    flags = 0;
    rip = 0;
    mem;
    cycles = 0;
    icount = 0;
    halted = false;
    exit_code = 0;
    out;
    input = Queue.create ();
    txn = None;
    observe = None;
    brk = Layout.heap_base;
    model_cache = false;
    warm = Int_table.create 256;
    warm_fifo = Queue.create ();
  }

(** A thread context sharing memory, output and heap-allocation state
    with [parent] but with its own registers, flags and counters. *)
let fork parent =
  {
    regs = Bytes.copy parent.regs;
    fregs = Array.copy parent.fregs;
    flags = parent.flags;
    rip = parent.rip;
    mem = parent.mem;
    cycles = 0;
    icount = 0;
    halted = false;
    exit_code = 0;
    out = parent.out;
    input = parent.input;
    txn = None;
    observe = None;
    brk = parent.brk;
    (* each virtual core has a private cache: fresh (cold) warm set *)
    model_cache = parent.model_cache;
    warm = Int_table.create 256;
    warm_fifo = Queue.create ();
  }

(* Reg.gp_index/fp_index are total over their constructors and lanes
   are bounded by Insn.lanes, so the register files never index out of
   range — unsafe accesses keep the loads and stores bounds-check-free.
   These are the cold callers' accessors; the interpreter's hot path
   has its own in Semantics. *)
let get ctx r = get64 ctx.regs (Reg.gp_index r lsl 3)
let set ctx r v = set64 ctx.regs (Reg.gp_index r lsl 3) v
let getf ctx r lane = Array.unsafe_get ctx.fregs ((Reg.fp_index r * 4) + lane)

let setf ctx r lane v =
  Array.unsafe_set ctx.fregs ((Reg.fp_index r * 4) + lane) v

let start_txn ctx =
  let t =
    {
      treads = Hashtbl.create 32;
      twrites = Hashtbl.create 32;
      taborted = false;
      checkpoint_regs = Bytes.copy ctx.regs;
      checkpoint_fregs = Array.copy ctx.fregs;
      checkpoint_rip = ctx.rip;
      checkpoint_flags = ctx.flags;
      checkpoint_brk = ctx.brk;
    }
  in
  ctx.txn <- Some t;
  t

let rollback ctx t =
  Bytes.blit t.checkpoint_regs 0 ctx.regs 0 (Bytes.length ctx.regs);
  Array.blit t.checkpoint_fregs 0 ctx.fregs 0 (Array.length ctx.fregs);
  ctx.rip <- t.checkpoint_rip;
  ctx.flags <- t.checkpoint_flags;
  ctx.brk <- t.checkpoint_brk;
  ctx.txn <- None

let end_txn ctx = ctx.txn <- None

(** {2 Data-cache warmth (prefetch extension)} *)

(** Mark the line containing [addr] warm (evicting FIFO at capacity). *)
let warm_line ctx addr =
  let line = addr / Janus_vx.Cost.cache_line in
  if not (Int_table.mem ctx.warm line) then begin
    Int_table.replace ctx.warm line ();
    Queue.push line ctx.warm_fifo;
    if Queue.length ctx.warm_fifo > Janus_vx.Cost.cache_lines then begin
      let victim = Queue.pop ctx.warm_fifo in
      Int_table.remove ctx.warm victim
    end
  end

(** Charge a miss if [addr]'s line is cold, then warm it. Only active
    when [model_cache] is set. *)
let touch_line ctx addr =
  if ctx.model_cache then begin
    let line = addr / Janus_vx.Cost.cache_line in
    if not (Int_table.mem ctx.warm line) then begin
      ctx.cycles <- ctx.cycles + Janus_vx.Cost.cache_miss;
      warm_line ctx addr
    end
  end
