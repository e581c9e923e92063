(** CFG recovery from a stripped JX image: function discovery from the
    entry point and direct call targets, basic-block partitioning, and
    successor/predecessor edges. Indirect control flow is marked as
    undetermined, as in the paper (§II-G). *)

open Janus_vx

type insn_info = { addr : int; insn : Insn.t; len : int }

type bblock = {
  baddr : int;                   (** start address *)
  insns : insn_info array;
  mutable succs : int list;      (** successor block start addresses *)
  mutable preds : int list;
}

type func = {
  fentry : int;
  mutable blocks : bblock list;  (** sorted by address *)
  block_at : (int, bblock) Hashtbl.t;
  mutable irregular : bool;      (** has indirect jumps/calls *)
  mutable callees : int list;    (** direct local call targets *)
  mutable excall_sites : (int * string) list;  (** call addr -> PLT name *)
  mutable has_syscall : bool;
}

type t = {
  image : Image.t;
  code : Code.t;
      (** the decoded text, which every later reader of the image
          shares: the profiler's and the executor's loads take it from
          here *)
  funcs : (int, func) Hashtbl.t;
  entry : int;
}

val fetch : t -> int -> (Insn.t * int) option
val block_end : bblock -> int

(** Recover the whole program over its decoded text
    ([Code.of_image image]): the entry function plus everything
    reachable through direct calls. *)
val recover : code:Code.t -> Image.t -> t

val func : t -> int -> func option

(** All recovered functions, by ascending entry address. *)
val all_funcs : t -> func list

val pp_func : Format.formatter -> func -> unit
