(** General-purpose and floating-point registers of the VX64 guest ISA.

    VX64 is modelled on x86-64: sixteen 64-bit general-purpose registers
    with the usual names, and sixteen 256-bit vector registers each
    holding four binary64 lanes (lane 0 doubles as the scalar FP
    register, lanes 0-1 form the SSE-like 128-bit view).

    Two additional {e hidden} registers, {!tls} and {!shared}, are not
    encodable by the guest compiler; they exist only for code injected
    by the dynamic modifier (thread-local-storage base and shared main
    stack pointer, mirroring the roles of r15 and r14 in the paper's
    Fig. 2(b) without having to prove those registers dead). *)

type gp =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15
  | TLS     (* hidden: thread-local storage base, DBM-injected code only *)
  | SHARED  (* hidden: main-thread stack pointer, DBM-injected code only *)

type fp = XMM of int  (* 0..15 *)

let gp_count = 18
let fp_count = 16

(* A constant constructor is represented by its declaration index, so
   the index is the register's own representation: no call, no match,
   even across module boundaries. *)
external gp_index : gp -> int = "%identity"

let gp_of_index = function
  | 0 -> RAX | 1 -> RBX | 2 -> RCX | 3 -> RDX
  | 4 -> RSI | 5 -> RDI | 6 -> RBP | 7 -> RSP
  | 8 -> R8 | 9 -> R9 | 10 -> R10 | 11 -> R11
  | 12 -> R12 | 13 -> R13 | 14 -> R14 | 15 -> R15
  | 16 -> TLS | 17 -> SHARED
  | n -> invalid_arg (Printf.sprintf "Reg.gp_of_index %d" n)

let fp_index (XMM n) = n

let fp_of_index n =
  if n < 0 || n >= fp_count then invalid_arg "Reg.fp_of_index" else XMM n

let gp_name = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"
  | TLS -> "tls" | SHARED -> "shr"

let fp_name (XMM n) = Printf.sprintf "xmm%d" n

let pp_gp ppf r = Fmt.string ppf (gp_name r)
let pp_fp ppf r = Fmt.string ppf (fp_name r)

let equal_gp (a : gp) (b : gp) = a = b
let equal_fp (a : fp) (b : fp) = a = b

(** All guest-encodable GP registers (excludes the hidden pair). *)
let all_gp =
  [ RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15 ]

let all_fp = List.init fp_count (fun i -> XMM i)

(** System V-like calling convention used by the guest compiler. *)
let arg_regs = [ RDI; RSI; RDX; RCX; R8; R9 ]

let fp_arg_regs = List.init 8 (fun i -> XMM i)
let ret_reg = RAX
let fp_ret_reg = XMM 0
let callee_saved = [ RBX; RBP; R12; R13; R14; R15 ]
let caller_saved = [ RAX; RCX; RDX; RSI; RDI; R8; R9; R10; R11 ]
