(** A loaded guest program: decoded code for application text, PLT
    stubs and runtime-resolved library code, plus initialised guest
    memory regions.

    Every code range is a {!Janus_vx.Code.t}: instruction, encoded
    length ([0] marks no instruction) and precomputed
    {!Janus_vx.Cost.of_insn} at each byte offset, so executors fetch
    with plain loads: no option allocation, no per-instruction cost
    match, and the [__par_for] intrinsic check is one compare against
    {!field:t.par_for_addr}. The text table is the caller's: the
    static analysis of an image carries it in its CFG, so a run of an
    analysed image decodes nothing. *)

open Janus_vx

type t = {
  image : Image.t;
  lib : Libcalls.t;
  plt : string array;           (** PLT slot index -> external name *)
  mem : Memory.t;
  text : Code.t;                (** the image's text *)
  stubs : Code.t;
      (** the PLT: each resolved slot jumps to its library entry;
          intrinsic and unresolved slots hold no instruction *)
  par_for_addr : int;           (** [__par_for]'s PLT slot address, or -1 *)
}

(** Load an image over its decoded text ([Code.of_image image], or
    the table an analysis of the image carries) and set up
    data/bss/heap/stack and library regions.
    @raise Invalid_argument if [code] does not span the image's text. *)
val load : code:Code.t -> Image.t -> t

(** Create private stack and TLS regions for [threads] workers
    (idempotent). *)
val add_thread_regions : t -> threads:int -> unit

(** The decoded code that would hold an address: the text, the PLT
    stubs or the library. Whether an instruction starts there is the
    table's to say ({!Janus_vx.Code.len}). *)
val code_at : t -> int -> Code.t

(** The external whose PLT slot is at this address, if any. *)
val plt_name : t -> int -> string option
