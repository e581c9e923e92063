(** Shared-library code, materialised as VX64 fragments at
    {!Janus_vx.Layout.lib_base} when a program is loaded.

    This code is {e not} part of the JX image, so the static analyser
    never sees it — it is discovered at runtime by the DBM, exactly
    like the paper's `pow@plt` in bwaves (§II-E3). Each function reads
    a constant table in library data (heap reads, no writes), giving
    speculative calls the paper's observed profile of ~tens of
    instructions with several heap reads and zero writes. *)

open Janus_vx

type t = {
  code : Code.t;  (* decoded at Layout.lib_base *)
  entries : (string * int) list;  (* function name -> entry address *)
  data : bytes;  (* loaded at Layout.lib_data_base *)
}

let max_pow_exponent = 32
let exp_terms = 12

let build () =
  let d = Builder.Data.create () in
  (* data offsets are relative to lib_data_base *)
  let one_off = Builder.Data.here d in
  Builder.Data.f64 d 1.0;
  let guard_off = Builder.Data.here d in
  (* guard table: zeros read (but not used numerically) each pow iteration *)
  for _ = 1 to max_pow_exponent do
    Builder.Data.f64 d 0.0
  done;
  let invfact_off = Builder.Data.here d in
  (* 1/k! for k = exp_terms down to 1, Horner order *)
  let fact = Array.make (exp_terms + 1) 1.0 in
  for k = 1 to exp_terms do
    fact.(k) <- fact.(k - 1) *. float_of_int k
  done;
  for k = exp_terms downto 1 do
    Builder.Data.f64 d (1.0 /. fact.(k))
  done;
  let b = Builder.create ~base:Layout.lib_base () in
  let abs off = Layout.lib_data_base + off in
  let fmem ?index ?scale off =
    Operand.Fmem (Operand.mem ?index ?scale ~disp:(abs off) ())
  in
  let xmm n = Reg.XMM n in
  (* pow(x = xmm0, y = xmm1) -> xmm0 = x^trunc(y), via a multiply loop
     that also touches the guard table (n heap reads, 0 writes). *)
  Builder.label b "pow";
  Builder.ins b (Insn.Cvtsd2si (Reg.RAX, Operand.Freg (xmm 1)));
  Builder.ins b (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 2), fmem one_off));
  Builder.ins b (Insn.Mov (Operand.Reg Reg.RCX, Operand.Imm 0L));
  Builder.label b "pow_loop";
  Builder.ins b (Insn.Cmp (Operand.Reg Reg.RCX, Operand.Reg Reg.RAX));
  Builder.jcc b Cond.Ge "pow_done";
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fmul, xmm 2, Operand.Freg (xmm 0)));
  Builder.ins b
    (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 3),
                fmem ~index:Reg.RCX ~scale:8 guard_off));
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fadd, xmm 2, Operand.Freg (xmm 3)));
  Builder.ins b (Insn.Alu (Insn.Add, Operand.Reg Reg.RCX, Operand.Imm 1L));
  Builder.jmp b "pow_loop";
  Builder.label b "pow_done";
  Builder.ins b (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 0), Operand.Freg (xmm 2)));
  Builder.ins b Insn.Ret;
  (* sqrt(x = xmm0) -> xmm0 *)
  Builder.label b "sqrt";
  Builder.ins b (Insn.Fsqrt (Insn.Scalar, xmm 0, Operand.Freg (xmm 0)));
  Builder.ins b Insn.Ret;
  (* exp(x = xmm0) -> xmm0, Horner over the 1/k! table + 1 *)
  Builder.label b "exp";
  Builder.ins b (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 2), fmem invfact_off));
  Builder.ins b (Insn.Mov (Operand.Reg Reg.RCX, Operand.Imm 1L));
  Builder.label b "exp_loop";
  Builder.ins b
    (Insn.Cmp (Operand.Reg Reg.RCX, Operand.Imm (Int64.of_int exp_terms)));
  Builder.jcc b Cond.Ge "exp_done";
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fmul, xmm 2, Operand.Freg (xmm 0)));
  Builder.ins b
    (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 3),
                fmem ~index:Reg.RCX ~scale:8 invfact_off));
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fadd, xmm 2, Operand.Freg (xmm 3)));
  Builder.ins b (Insn.Alu (Insn.Add, Operand.Reg Reg.RCX, Operand.Imm 1L));
  Builder.jmp b "exp_loop";
  Builder.label b "exp_done";
  (* result = 1 + x * horner *)
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fmul, xmm 2, Operand.Freg (xmm 0)));
  Builder.ins b (Insn.Fmov (Insn.Scalar, Operand.Freg (xmm 0), fmem one_off));
  Builder.ins b (Insn.Fbin (Insn.Scalar, Insn.Fadd, xmm 0, Operand.Freg (xmm 2)));
  Builder.ins b Insn.Ret;
  let entries =
    [
      ("pow", Builder.label_addr b "pow");
      ("sqrt", Builder.label_addr b "sqrt");
      ("exp", Builder.label_addr b "exp");
    ]
  in
  { code = Code.decode ~base:Layout.lib_base (Builder.to_bytes b); entries;
    data = Builder.Data.contents d }

(** Names that the VM intercepts rather than running as guest code. *)
let intrinsic_par_for = "__par_for"

let entry t name =
  List.assoc_opt name t.entries
