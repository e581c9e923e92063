(** General-purpose and floating-point registers of the VX64 guest ISA.

    VX64 is modelled on x86-64: sixteen 64-bit general-purpose
    registers with the usual names, and sixteen vector registers each
    holding four binary64 lanes (lane 0 doubles as the scalar FP
    register; lanes 0-1 form the SSE-like 128-bit view).

    The {e hidden} registers {!gp.TLS} and {!gp.SHARED} are not
    encodable by the guest compiler; they exist for code injected by
    the dynamic modifier (thread-local-storage base and shared main
    stack pointer, mirroring r15 / r14 in the paper's Fig. 2(b)). *)

type gp =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15
  | TLS     (** hidden: thread-local storage base *)
  | SHARED  (** hidden: main-thread frame pointer *)

type fp = XMM of int  (** 0..15 *)

val gp_count : int
val fp_count : int

(** The register's index, [0] ([RAX]) to [gp_count - 1] ([SHARED]) in
    declaration order: a constant constructor's representation, so the
    interpreter computes it without a call. *)
external gp_index : gp -> int = "%identity"

val gp_of_index : int -> gp
val fp_index : fp -> int
val fp_of_index : int -> fp

val gp_name : gp -> string
val fp_name : fp -> string
val pp_gp : Format.formatter -> gp -> unit
val pp_fp : Format.formatter -> fp -> unit
val equal_gp : gp -> gp -> bool
val equal_fp : fp -> fp -> bool

(** All guest-encodable GP registers (excludes the hidden pair). *)
val all_gp : gp list

val all_fp : fp list

(** {1 The guest calling convention (System V-like)} *)

val arg_regs : gp list
val fp_arg_regs : fp list
val ret_reg : gp
val fp_ret_reg : fp
val callee_saved : gp list
val caller_saved : gp list
