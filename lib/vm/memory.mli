(** Region-based guest memory: the address space is a small set of
    non-overlapping regions (text, data, bss, heap, library data, one
    stack and one TLS block per thread). Accesses outside every region
    fault, catching wild pointers from miscompiled or mis-rewritten
    code. *)

exception Fault of int  (** faulting guest address *)

(** A region's backing is a window of it: the guest range
    [\[base, base + Bytes.length bytes)], always inside
    [\[start, start + size)]. It opens where the guest first touches
    the region and widens towards later touches, downwards as well as
    upwards, so a stack first touched at its top materialises only
    what it uses. Bytes in the window that the guest never wrote, and
    every byte outside it, are zero. *)
type region = {
  start : int;
  size : int;              (** architectural size: bounds and faults *)
  mutable base : int;      (** guest address of [bytes.(0)] *)
  mutable bytes : Bytes.t; (** the materialised window *)
  name : string;
}

(** Pages are [1 lsl page_bits] bytes. *)
val page_bits : int

(** The representation is exposed so {!Semantics} can inline the
    64-bit fast path (see {!read_i64}); everything else goes through
    the functions below. [pages.(addr lsr page_bits)] is the region
    covering that page, or a sentinel whose bounds no address
    satisfies; [regions] is the authoritative list. *)
type t = {
  mutable regions : region list;
  mutable pages : region array;
}

(** The page-table entry of an unmapped page: its window is empty, so
    no address passes the fast path's bounds test. *)
val no_region : region

val create : unit -> t

(** Add a region; overlap checking is the caller's responsibility
    (regions come from the fixed {!Janus_vx.Layout}). The page table
    grows to exactly the last page the region covers, so a caller adds
    its highest region first. *)
val add_region : t -> name:string -> start:int -> size:int -> region

val region_by_name : t -> string -> region option

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

(** 64-bit little-endian load and store. An access through the page
    table that lies inside its region's window is the fast path
    ([off = addr - base], then one bounds compare against the window's
    length); any other access ({!Fault} included) takes a slow path
    that widens the window on demand. A caller's own copy of the fast
    path must fall back to these functions, which then reproduce the
    same result or fault. *)
val read_i64 : t -> int -> int64

val write_i64 : t -> int -> int64 -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

(** Copy [src] into guest memory at [addr].
    @raise Fault unless the whole range lies inside one region. *)
val blit : t -> addr:int -> bytes -> unit

(** Copy [n] guest bytes out (for digests and test oracles).
    @raise Fault unless the whole range lies inside one region. *)
val snapshot : t -> int -> int -> bytes
