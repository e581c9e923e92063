(** The JX executable format.

    A JX image is what the static analyser receives: raw code bytes at
    a known base address, initialised data, a BSS size, and a PLT-like
    table of external (shared-library) entries — names only, no
    internal symbols, mirroring a stripped ELF binary whose dynamic
    symbols survive stripping. *)

type t = {
  entry : int;              (** virtual address of the first instruction *)
  text : bytes;             (** encoded code at {!Layout.text_base} *)
  data : bytes;             (** initialised data at {!Layout.data_base} *)
  bss_size : int;           (** zero region at {!Layout.bss_base} *)
  externals : string list;  (** PLT entries, slot i at {!Layout.plt_slot_addr} *)
}

val magic : string
val text_end : t -> int

(** Total file size in bytes, the denominator of Fig. 10. *)
val size : t -> int

val plt_addr : t -> string -> int option
val external_of_addr : t -> int -> string option

val to_bytes : t -> bytes

(** Raised by {!of_bytes} for a buffer that is not a whole JX image. *)
exception Bad_image of string

(** Decode the on-disk form. Total: any buffer decodes to an image or
    raises {!Bad_image} (bad magic, a short header, an entry address
    wider than 63 bits, a section longer than the rest of the buffer,
    an unterminated PLT name), and a buffer that decodes is exactly
    [to_bytes] of its image. *)
val of_bytes : bytes -> t

(** Decode the text section into an address-indexed instruction table:
    virtual address -> (instruction, encoded length). *)
val decode_text : t -> (int, Insn.t * int) Hashtbl.t
