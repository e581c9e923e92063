(** Decoded code: the one form in which every consumer reads VX64
    instructions — the CFG recovery and the schedule verifier, the
    interpreter, the DBM's translator and the library loader.

    A table is built by one sweep of {!Decode} over a code buffer and
    never changes afterwards. It is indexed by byte offset from its
    base address, so a lookup is an array load with no hashing and no
    allocation. At the offset where an instruction starts it holds the
    instruction, its encoded length and its {!Cost.of_insn}; at every
    other offset the length is 0. *)

type t = private {
  base : int;            (** guest address of offset 0 *)
  insns : Insn.t array;  (** the instruction starting at each offset;
                             [Nop] where none does *)
  lens : Bytes.t;        (** its encoded length; ['\000'] where no
                             instruction starts *)
  costs : Bytes.t;       (** {!Cost.of_insn} of it *)
}

(** Decode a whole code buffer loaded at [base].
    @raise Decode.Bad_encoding on malformed input, as {!Decode.one}
    does, and nothing else. *)
val decode : base:int -> bytes -> t

(** The text section of an image, at {!Layout.text_base}.
    @raise Decode.Bad_encoding on a malformed text. *)
val of_image : Image.t -> t

(** A table of [size] bytes holding [(offset, instruction, length)]
    triples, for code that has no byte form (PLT stubs). *)
val of_insns : base:int -> size:int -> (int * Insn.t * int) list -> t

(** Bytes covered: the table spans [\[base, base + size)]. *)
val size : t -> int

(** The encoded length of the instruction starting at an address; 0
    when none does (mid-instruction, or outside the table). *)
val len : t -> int -> int

(** Does an instruction start at this address? *)
val mem : t -> int -> bool

(** The instruction starting at an address, with its length. For
    analysis-time callers; executors read the fields. *)
val find : t -> int -> (Insn.t * int) option
