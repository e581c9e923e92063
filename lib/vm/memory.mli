(** Region-based guest memory: the address space is a small set of
    non-overlapping regions (text, data, bss, heap, library data, one
    stack and one TLS block per thread). Accesses outside every region
    fault, catching wild pointers from miscompiled or mis-rewritten
    code. *)

exception Fault of int  (** faulting guest address *)

type region = {
  start : int;
  size : int;              (** architectural size: bounds and faults *)
  mutable bytes : Bytes.t; (** materialised zero-filled prefix, <= size *)
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

(** The page-table entry of an unmapped page: no address lies in it. *)
val no_region : region

val create : unit -> t

(** Add a region; overlap checking is the caller's responsibility
    (regions come from the fixed {!Janus_vx.Layout}). *)
val add_region : t -> name:string -> start:int -> size:int -> region

val region_by_name : t -> string -> region option

(** Grow a region's backing so its first [n] bytes are materialised
    (zero-filled); for callers that read [region.bytes] directly.
    [n] must not exceed the architectural size. *)
val materialize : region -> int -> unit

(** @raise Fault unless the whole range lies inside one region. *)
val check : t -> int -> int -> unit

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

(** 64-bit little-endian load and store. An in-bounds access to a
    region's materialised prefix through the page table is the fast
    path; any other access ({!Fault} included) takes a slow path that
    materialises on demand. A caller's own copy of the fast path must
    fall back to these functions, which then reproduce the same result
    or fault. *)
val read_i64 : t -> int -> int64

val write_i64 : t -> int -> int64 -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

(** Copy [src] into guest memory at [addr]. *)
val blit : t -> addr:int -> bytes -> unit

(** Copy [n] guest bytes out (for test oracles). *)
val snapshot : t -> int -> int -> bytes
