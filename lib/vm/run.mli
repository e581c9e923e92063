(** The plain VM runner — "native execution" of a JX image, without any
    dynamic modification. This is the baseline all Janus configurations
    normalise against, and the semantic oracle for tests. Also
    implements the [__par_for] intrinsic used by compiler-parallelised
    binaries (Fig. 11). *)

exception Out_of_fuel
exception Bad_pc of int

type result = {
  exit_code : int;
  output : string;
  cycles : int;
  icount : int;
  mem_digest : string;
      (** digest of the final globals + allocated heap (see
          {!mem_digest}) *)
}

(** Digest of the architecturally visible final memory of a context:
    data + bss + the allocated heap prefix. Stacks and TLS are
    excluded, so the digest is comparable across execution backends
    (native, DBM, parallel) for one program — the memory half of a
    differential oracle's "same final state" check. *)
val mem_digest : Machine.t -> string

(** The sentinel return address used by {!call_function}. *)
val sentinel : int

val default_fuel : int

(** Execute from [ctx.rip] until the program halts or control returns
    to the sentinel. *)
val run_from : Program.t -> Machine.t -> fuel:int -> unit

(** Run the function at an address to completion in [ctx]. *)
val call_function : Program.t -> Machine.t -> int -> fuel:int -> unit

(** The [__par_for] intrinsic: distribute [fn(lo, hi)] chunks over
    virtual threads with the same multicore cost model Janus uses. *)
val par_for : Program.t -> Machine.t -> fuel:int -> unit

(** A fresh main-thread context at the image's entry point. *)
val fresh_context : Program.t -> Machine.t

(** Decode, load and run an image natively. *)
val run :
  ?fuel:int -> ?input:int64 list -> ?model_cache:bool -> Janus_vx.Image.t ->
  result
