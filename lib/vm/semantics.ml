(** Instruction semantics for VX64, shared by the plain VM interpreter
    and the DBM's code-cache executor.

    Memory accesses respect the context's transaction (speculative
    buffering) and observation hook (dependence profiling), so the STM
    and profiler interpose without duplicating the interpreter.

    Every per-instruction helper below is [@inline] and defined in this
    module: the hot path never calls into {!Machine}, {!Memory} or
    [Janus_vx] per instruction. Dev builds compile each module with
    [-opaque], which turns off cross-module inlining, so such a call
    would be a real call, and an [int64] returned from it a fresh box.
    Inlined here, register values, operands and memory words stay
    unboxed from load to store. Two rules keep them unboxed:
    - an [int64] used more than once is bound by a source-level [let]
      (typed, so the compiler unboxes it even when one branch is a
      slow-path call), never passed as a non-trivial argument to an
      inlined helper (the compiler binds such arguments untyped);
    - a value crosses into a non-inlined function only on a slow path. *)

open Janus_vx

type control =
  | Fall            (* fall through to the next instruction *)
  | Goto of int     (* transfer to an application address *)
  | Stop            (* program exited or halted *)

exception Div_by_zero of int  (* rip *)

(* Register files *)

(* The same byte layout as Machine.get/set: register i at 8*i, host
   byte order. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] reg ctx r = get64 ctx.Machine.regs (Reg.gp_index r lsl 3)
let[@inline] set_reg ctx r (v : int64) =
  set64 ctx.Machine.regs (Reg.gp_index r lsl 3) v

let[@inline] lane_index (Reg.XMM n) lane = (n * 4) + lane
let[@inline] freg ctx r lane =
  Array.unsafe_get ctx.Machine.fregs (lane_index r lane)
let[@inline] set_freg ctx r lane (v : float) =
  Array.unsafe_set ctx.Machine.fregs (lane_index r lane) v

let[@inline] addr_of_mem ctx (m : Operand.mem) =
  let base =
    match m.base with Some r -> Int64.to_int (reg ctx r) | None -> 0
  in
  let index =
    match m.index with
    | Some r -> Int64.to_int (reg ctx r) * m.scale
    | None -> 0
  in
  base + index + m.disp

(* Memory *)

(* The hooked path: observer first, then the cache model, then the
   transaction. Word-granularity speculative and observed access. *)

let[@inline never] read_hooked ctx addr =
  (match ctx.Machine.observe with
   | Some f -> f Machine.Read ~addr ~bytes:8
   | None -> ());
  Machine.touch_line ctx addr;
  match ctx.Machine.txn with
  | Some t -> begin
      ctx.Machine.cycles <- ctx.Machine.cycles + Cost.stm_read;
      match Hashtbl.find_opt t.Machine.twrites addr with
      | Some v -> v
      | None ->
        let v = Memory.read_i64 ctx.Machine.mem addr in
        if not (Hashtbl.mem t.Machine.treads addr) then
          Hashtbl.replace t.Machine.treads addr v;
        v
    end
  | None -> Memory.read_i64 ctx.Machine.mem addr

let[@inline never] write_hooked ctx addr v =
  (match ctx.Machine.observe with
   | Some f -> f Machine.Write ~addr ~bytes:8
   | None -> ());
  Machine.touch_line ctx addr;
  match ctx.Machine.txn with
  | Some t ->
    ctx.Machine.cycles <- ctx.Machine.cycles + Cost.stm_write;
    Hashtbl.replace t.Machine.twrites addr v
  | None -> Memory.write_i64 ctx.Machine.mem addr v

(* no transaction, no observer, no cache model: nothing interposes *)
let[@inline] unhooked ctx =
  ctx.Machine.txn == None && ctx.Machine.observe == None
  && not ctx.Machine.model_cache

(* Memory.read_i64's fast path, inlined: one page-table load, one
   bounds compare against the region's materialised prefix, then the
   little-endian access. Anything else goes to Memory, whose slow path
   materialises or faults exactly as before. *)
let[@inline] page_region (mem : Memory.t) addr =
  let p = addr lsr Memory.page_bits in
  let pages = mem.Memory.pages in
  if p < Array.length pages then Array.unsafe_get pages p
  else Memory.no_region

let[@inline] read ctx addr =
  if unhooked ctx then begin
    let mem = ctx.Machine.mem in
    let r = page_region mem addr in
    let off = addr - r.Memory.start in
    if off >= 0 && off + 8 <= Bytes.length r.Memory.bytes then begin
      let v = get64 r.Memory.bytes off in
      if Sys.big_endian then swap64 v else v
    end
    else Memory.read_i64 mem addr
  end
  else read_hooked ctx addr

let[@inline] write ctx addr (v : int64) =
  if unhooked ctx then begin
    let mem = ctx.Machine.mem in
    let r = page_region mem addr in
    let off = addr - r.Memory.start in
    if off >= 0 && off + 8 <= Bytes.length r.Memory.bytes then
      set64 r.Memory.bytes off (if Sys.big_endian then swap64 v else v)
    else Memory.write_i64 mem addr v
  end
  else write_hooked ctx addr v

let raw_read ctx addr = read ctx addr
let raw_write ctx addr v = write ctx addr v

let[@inline] read_f64 ctx addr = Int64.float_of_bits (read ctx addr)
let[@inline] write_f64 ctx addr (v : float) =
  write ctx addr (Int64.bits_of_float v)

(* Operands *)

let[@inline] value_of ctx (o : Operand.t) =
  match o with
  | Operand.Reg r -> reg ctx r
  | Operand.Imm v -> v
  | Operand.Mem m -> read ctx (addr_of_mem ctx m)

let[@inline] store_to ctx (o : Operand.t) (v : int64) =
  match o with
  | Operand.Reg r -> set_reg ctx r v
  | Operand.Mem m -> write ctx (addr_of_mem ctx m) v
  | Operand.Imm _ -> invalid_arg "Semantics.store: immediate destination"

let[@inline] fop_value ctx lane (o : Operand.fop) =
  match o with
  | Operand.Freg r -> freg ctx r lane
  | Operand.Fmem m -> read_f64 ctx (addr_of_mem ctx m + (8 * lane))

(* Flags *)

(* Bit layout of Machine.flags. Each setter computes the packed word
   and issues one store. *)
let flag_zf = 1          (* zero: last compare was equal / result zero *)
let flag_lt = 2          (* signed less-than of the last compare *)
let flag_ult = 4         (* unsigned less-than *)
let flag_sf = 8          (* sign of the last result *)

let[@inline] bit b mask = if b then mask else 0

let[@inline] flags_cmp (a : int64) (b : int64) =
  bit (a = b) flag_zf
  lor bit (a < b) flag_lt
  lor bit (Int64.sub a Int64.min_int < Int64.sub b Int64.min_int) flag_ult
  lor bit (Int64.sub a b < 0L) flag_sf

let[@inline] flags_result (v : int64) =
  bit (v = 0L) flag_zf lor bit (v < 0L) (flag_lt lor flag_sf)

let set_flags_cmp ctx a b = ctx.Machine.flags <- flags_cmp a b
let set_flags_result ctx v = ctx.Machine.flags <- flags_result v

let[@inline] set_flags_fcmp ctx (a : float) (b : float) =
  if Float.is_nan a || Float.is_nan b then ctx.Machine.flags <- 0
  else begin
    let lt = a < b in
    ctx.Machine.flags <-
      bit (Float.equal a b) flag_zf
      lor bit lt (flag_lt lor flag_ult lor flag_sf)
  end

(* Cond.eval over the packed word *)
let[@inline] cond_holds f (c : Cond.t) =
  let zf = f land flag_zf <> 0 in
  let lt = f land flag_lt <> 0 in
  let ult = f land flag_ult <> 0 in
  match c with
  | Cond.Eq -> zf
  | Cond.Ne -> not zf
  | Cond.Lt -> lt
  | Cond.Le -> lt || zf
  | Cond.Gt -> not (lt || zf)
  | Cond.Ge -> not lt
  | Cond.Ult -> ult
  | Cond.Ule -> ult || zf
  | Cond.Ugt -> not (ult || zf)
  | Cond.Uge -> not ult
  | Cond.S -> f land flag_sf <> 0
  | Cond.Ns -> f land flag_sf = 0

let eval_cond ctx c = cond_holds ctx.Machine.flags c

(* ALU and FP operations *)

let[@inline] alu op (a : int64) (b : int64) =
  match op with
  | Insn.Add -> Int64.add a b
  | Insn.Sub -> Int64.sub a b
  | Insn.Imul -> Int64.mul a b
  | Insn.And -> Int64.logand a b
  | Insn.Or -> Int64.logor a b
  | Insn.Xor -> Int64.logxor a b
  | Insn.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Insn.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Insn.Sar -> Int64.shift_right a (Int64.to_int b land 63)

let[@inline] lanes = function Insn.Scalar -> 1 | Insn.X -> 2 | Insn.Y -> 4

let[@inline] fbin op (a : float) (b : float) =
  match op with
  | Insn.Fadd -> a +. b
  | Insn.Fsub -> a -. b
  | Insn.Fmul -> a *. b
  | Insn.Fdiv -> a /. b
  | Insn.Fmin -> Float.min a b
  | Insn.Fmax -> Float.max a b

(* [dst op= src], flags from the result. Reads [src] before [dst]:
   an observer and the STM see the order of accesses, so it is fixed. *)
let[@inline] exec_alu ctx op dst src =
  let b = value_of ctx src in
  let a = value_of ctx dst in
  let v = alu op a b in
  store_to ctx dst v;
  ctx.Machine.flags <- flags_result v

let[@inline] exec_cmp ctx x y =
  let b = value_of ctx y in
  let a = value_of ctx x in
  ctx.Machine.flags <- flags_cmp a b

let[@inline] push_value ctx (v : int64) =
  let sp = Int64.sub (reg ctx Reg.RSP) 8L in
  set_reg ctx Reg.RSP sp;
  write ctx (Int64.to_int sp) v

let[@inline] pop_value ctx =
  let sp = reg ctx Reg.RSP in
  let v = read ctx (Int64.to_int sp) in
  set_reg ctx Reg.RSP (Int64.add sp 8L);
  v

let push ctx v = push_value ctx v
let pop ctx = pop_value ctx

(* Fused pairs (the DBM's superinstructions) *)

(* The DBM only fuses register/immediate operands, so these never
   touch memory; each is one call from the DBM's executor, and no int64
   crosses into it. *)

let cmp_jcc ctx a b cond =
  exec_cmp ctx a b;
  cond_holds ctx.Machine.flags cond

(* the ALU result's flags are dead: the compare rewrites the whole
   packed word *)
let alu_cmp ctx op d s a b =
  let y = value_of ctx s in
  let x = value_of ctx d in
  let v = alu op x y in
  store_to ctx d v;
  exec_cmp ctx a b

let mov_alu ctx d1 s1 op d2 s2 =
  let v1 = value_of ctx s1 in
  store_to ctx d1 v1;
  exec_alu ctx op d2 s2

(* Syscalls (cold: Machine's accessors are fine here) *)

let syscall ctx n =
  if n = Insn.sys_exit then begin
    ctx.Machine.halted <- true;
    ctx.Machine.exit_code <- Int64.to_int (Machine.get ctx Reg.RDI);
    Stop
  end
  else if n = Insn.sys_write_int then begin
    Buffer.add_string ctx.Machine.out
      (Printf.sprintf "%Ld\n" (Machine.get ctx Reg.RDI));
    Fall
  end
  else if n = Insn.sys_write_float then begin
    Buffer.add_string ctx.Machine.out
      (Printf.sprintf "%.6g\n" (Machine.getf ctx (Reg.XMM 0) 0));
    Fall
  end
  else if n = Insn.sys_read_int then begin
    let v =
      if Queue.is_empty ctx.Machine.input then 0L
      else Queue.pop ctx.Machine.input
    in
    Machine.set ctx Reg.RAX v;
    Fall
  end
  else if n = Insn.sys_brk then begin
    let sz = Int64.to_int (Machine.get ctx Reg.RDI) in
    let old = ctx.Machine.brk in
    let aligned = (sz + 15) land lnot 15 in
    if old + aligned > Layout.heap_limit then raise (Memory.Fault (old + aligned));
    ctx.Machine.brk <- old + aligned;
    Machine.set ctx Reg.RAX (Int64.of_int old);
    Fall
  end
  else Fall  (* unknown syscalls are no-ops *)

(** Execute one instruction whose encoded length is [len], charging
    [cost] cycles (callers with a translated slot pass the cost they
    precomputed at translation time; {!exec} computes it here). Updates
    registers, flags, memory, cycle and instruction counters, and
    returns where control goes. Does NOT update [ctx.rip] — callers
    own instruction sequencing. *)
let exec_costed ctx insn ~len ~cost =
  ctx.Machine.cycles <- ctx.Machine.cycles + cost;
  ctx.Machine.icount <- ctx.Machine.icount + 1;
  match insn with
  | Insn.Nop -> Fall
  | Insn.Hlt ->
    ctx.Machine.halted <- true;
    Stop
  | Insn.Mov (dst, src) ->
    let v = value_of ctx src in
    store_to ctx dst v;
    Fall
  | Insn.Lea (r, m) ->
    set_reg ctx r (Int64.of_int (addr_of_mem ctx m));
    Fall
  | Insn.Alu (op, dst, src) ->
    exec_alu ctx op dst src;
    Fall
  | Insn.Neg o ->
    let v = Int64.neg (value_of ctx o) in
    store_to ctx o v;
    ctx.Machine.flags <- flags_result v;
    Fall
  | Insn.Not o ->
    let x = value_of ctx o in
    let v = Int64.lognot x in
    store_to ctx o v;
    Fall
  | Insn.Idiv o ->
    let d = value_of ctx o in
    if d = 0L then raise (Div_by_zero ctx.Machine.rip);
    let a = reg ctx Reg.RAX in
    set_reg ctx Reg.RAX (Int64.div a d);
    set_reg ctx Reg.RDX (Int64.rem a d);
    Fall
  | Insn.Cmp (a, b) ->
    exec_cmp ctx a b;
    Fall
  | Insn.Test (a, b) ->
    let y = value_of ctx b in
    let x = value_of ctx a in
    ctx.Machine.flags <- flags_result (Int64.logand x y);
    Fall
  | Insn.Jmp (Insn.Direct a) -> Goto a
  | Insn.Jmp (Insn.Indirect o) -> Goto (Int64.to_int (value_of ctx o))
  | Insn.Jcc (c, a) -> if cond_holds ctx.Machine.flags c then Goto a else Fall
  | Insn.Call (Insn.Direct a) ->
    push_value ctx (Int64.of_int (ctx.Machine.rip + len));
    Goto a
  | Insn.Call (Insn.Indirect o) ->
    let target = Int64.to_int (value_of ctx o) in
    push_value ctx (Int64.of_int (ctx.Machine.rip + len));
    Goto target
  | Insn.Ret -> Goto (Int64.to_int (pop_value ctx))
  | Insn.Push o ->
    let v = value_of ctx o in
    push_value ctx v;
    Fall
  | Insn.Pop o ->
    let v = pop_value ctx in
    store_to ctx o v;
    Fall
  | Insn.Cmov (c, r, src) ->
    if cond_holds ctx.Machine.flags c then begin
      let v = value_of ctx src in
      set_reg ctx r v
    end;
    Fall
  | Insn.Fmov (w, dst, src) ->
    let n = lanes w in
    (match dst with
     | Operand.Freg r ->
       for l = 0 to n - 1 do
         let v = fop_value ctx l src in
         set_freg ctx r l v
       done
     | Operand.Fmem m ->
       let a = addr_of_mem ctx m in
       for l = 0 to n - 1 do
         let v = fop_value ctx l src in
         write_f64 ctx (a + (8 * l)) v
       done);
    Fall
  | Insn.Fbin (w, op, d, src) ->
    for l = 0 to lanes w - 1 do
      let b = fop_value ctx l src in
      let v = fbin op (freg ctx d l) b in
      set_freg ctx d l v
    done;
    Fall
  | Insn.Fsqrt (w, d, src) ->
    for l = 0 to lanes w - 1 do
      let v = Float.sqrt (fop_value ctx l src) in
      set_freg ctx d l v
    done;
    Fall
  | Insn.Fbcast (w, d, src) ->
    let v = fop_value ctx 0 src in
    for l = 0 to lanes w - 1 do
      set_freg ctx d l v
    done;
    Fall
  | Insn.Fcmp (a, b) ->
    let y = fop_value ctx 0 b in
    set_flags_fcmp ctx (freg ctx a 0) y;
    Fall
  | Insn.Cvtsi2sd (d, src) ->
    let v = Int64.to_float (value_of ctx src) in
    set_freg ctx d 0 v;
    Fall
  | Insn.Cvtsd2si (d, src) ->
    let v = Int64.of_float (fop_value ctx 0 src) in
    set_reg ctx d v;
    Fall
  | Insn.Syscall n -> syscall ctx n
  | Insn.Prefetch m ->
    Machine.warm_line ctx (addr_of_mem ctx m);
    Fall

let exec ctx insn ~len = exec_costed ctx insn ~len ~cost:(Cost.of_insn insn)
