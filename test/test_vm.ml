(* Tests for the VM substrate: memory, semantics, runner, library
   fragments and the __par_for intrinsic. *)

open Janus_vx
open Janus_vm

let reg r = Operand.Reg r
let imm i = Operand.Imm (Int64.of_int i)

(* _start: sum 0..9, print, exit 0 *)
let sum_program () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm 0));
  Builder.ins b (Insn.Mov (reg Reg.RAX, imm 0));
  Builder.label b "loop";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, imm 10));
  Builder.jcc b Cond.Ge "done";
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RAX, reg Reg.RCX));
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "loop";
  Builder.label b "done";
  Builder.ins b (Insn.Mov (reg Reg.RDI, reg Reg.RAX));
  Builder.ins b (Insn.Syscall Insn.sys_write_int);
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  Builder.to_image b ~entry:"_start"

let test_sum_loop () =
  let r = Run.run (sum_program ()) in
  Alcotest.(check string) "output" "45\n" r.Run.output;
  Alcotest.(check int) "exit" 0 r.Run.exit_code;
  Alcotest.(check bool) "cycles counted" true (r.Run.cycles > 0);
  Alcotest.(check bool) "icount counted" true (r.Run.icount > 40)

let test_memory_regions () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  Memory.write_i64 m 0x1000 42L;
  Alcotest.(check int64) "read back" 42L (Memory.read_i64 m 0x1000);
  Memory.write_f64 m 0x1010 3.5;
  Alcotest.(check (float 0.0)) "float read" 3.5 (Memory.read_f64 m 0x1010);
  Alcotest.check_raises "fault below" (Memory.Fault 0xfff) (fun () ->
      ignore (Memory.read_i64 m 0xfff));
  Alcotest.check_raises "fault straddling end" (Memory.Fault 0x1100) (fun () ->
      ignore (Memory.read_i64 m 0x10f9))

(* call pow(2.0, 8.0) through the PLT; result printed *)
let pow_program () =
  let b = Builder.create () in
  let d = Builder.Data.create () in
  Builder.Data.label d "two";
  Builder.Data.f64 d 2.0;
  Builder.Data.label d "eight";
  Builder.Data.f64 d 8.0;
  Builder.label b "_start";
  Builder.ins b
    (Insn.Fmov (Insn.Scalar, Operand.Freg (Reg.XMM 0),
                Operand.Fmem (Operand.mem_abs (Builder.Data.addr d "two"))));
  Builder.ins b
    (Insn.Fmov (Insn.Scalar, Operand.Freg (Reg.XMM 1),
                Operand.Fmem (Operand.mem_abs (Builder.Data.addr d "eight"))));
  Builder.ins b (Insn.Call (Insn.Direct (Layout.plt_slot_addr 0)));
  Builder.ins b (Insn.Syscall Insn.sys_write_float);
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  Builder.to_image b ~entry:"_start"
    ~data:(Builder.Data.contents d)
    ~externals:[ "pow" ]

let test_pow_libcall () =
  let r = Run.run (pow_program ()) in
  Alcotest.(check string) "pow(2,8)" "256\n" r.Run.output

(* __par_for over a bss array: body writes a[i] = 3*i, main sums. *)
let par_program ~threads ~n =
  let b = Builder.create () in
  let bss = Layout.bss_base in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.call_label b "body_wrapper";
  (* sum the array *)
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm 0));
  Builder.ins b (Insn.Mov (reg Reg.RAX, imm 0));
  Builder.label b "sum_loop";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, imm n));
  Builder.jcc b Cond.Ge "sum_done";
  Builder.ins b
    (Insn.Alu (Insn.Add, reg Reg.RAX,
               Operand.Mem (Operand.mem ~index:Reg.RCX ~scale:8 ~disp:bss ())));
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "sum_loop";
  Builder.label b "sum_done";
  Builder.ins b (Insn.Mov (reg Reg.RDI, reg Reg.RAX));
  Builder.ins b (Insn.Syscall Insn.sys_write_int);
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  (* body_wrapper: calls __par_for(body, 0, n, threads) *)
  Builder.label b "body_wrapper";
  Builder.ins b (Insn.Mov (reg Reg.RSI, imm 0));
  Builder.ins b (Insn.Mov (reg Reg.RDX, imm n));
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm threads));
  Builder.ins b (Insn.Lea (Reg.RDI, Operand.mem_abs 0));
  (* patched below: lea rdi, [body] — emit via label trick *)
  Builder.ins b (Insn.Call (Insn.Direct (Layout.plt_slot_addr 0)));
  Builder.ins b Insn.Ret;
  (* body(lo=rdi, hi=rsi): for i in [lo,hi) a[i] = 3*i *)
  Builder.label b "body";
  Builder.ins b (Insn.Mov (reg Reg.RCX, reg Reg.RDI));
  Builder.label b "body_loop";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, reg Reg.RSI));
  Builder.jcc b Cond.Ge "body_done";
  Builder.ins b (Insn.Mov (reg Reg.RAX, reg Reg.RCX));
  Builder.ins b (Insn.Alu (Insn.Imul, reg Reg.RAX, imm 3));
  (* pad the body with work so the parallel region dominates *)
  for _ = 1 to 20 do
    Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RDX, reg Reg.RAX))
  done;
  Builder.ins b
    (Insn.Mov (Operand.Mem (Operand.mem ~index:Reg.RCX ~scale:8 ~disp:bss ()),
               reg Reg.RAX));
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "body_loop";
  Builder.label b "body_done";
  Builder.ins b Insn.Ret;
  (b, n)

let par_image ~threads ~n =
  let b, _ = par_program ~threads ~n in
  (* fix the lea to point at body *)
  let body_addr = Builder.label_addr b "body" in
  let insns = Builder.finish b in
  let insns =
    List.map
      (function
        | Insn.Lea (Reg.RDI, m) when m.Operand.disp = 0 ->
          Insn.Lea (Reg.RDI, Operand.mem_abs body_addr)
        | i -> i)
      insns
  in
  let text = Encode.encode_list insns in
  {
    Image.entry = Layout.text_base;
    text;
    data = Bytes.create 0;
    bss_size = 8 * n;
    externals = [ "__par_for" ];
  }

let test_par_for () =
  (* sequential (1 thread) and parallel (4) must agree, and parallel
     must model fewer max-thread cycles *)
  let n = 64 in
  let r1 = Run.run (par_image ~threads:1 ~n) in
  let r4 = Run.run (par_image ~threads:4 ~n) in
  Alcotest.(check string) "same output" r1.Run.output r4.Run.output;
  let expected = 3 * (n * (n - 1) / 2) in
  (* output is sum of a[i]=3i *)
  Alcotest.(check string) "value" (Printf.sprintf "%d\n" expected) r4.Run.output

let test_par_for_speedup () =
  let n = 4096 in
  let r1 = Run.run (par_image ~threads:1 ~n) in
  let r8 = Run.run (par_image ~threads:8 ~n) in
  let s = float_of_int r1.Run.cycles /. float_of_int r8.Run.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "8-thread speedup %.2f > 2" s)
    true (s > 2.0)

let test_fork_isolation () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  let ctx = Machine.create m in
  Machine.set ctx Reg.RAX 7L;
  let child = Machine.fork ctx in
  Machine.set child Reg.RAX 9L;
  Alcotest.(check int64) "parent unchanged" 7L (Machine.get ctx Reg.RAX);
  (* but memory is shared *)
  Memory.write_i64 m 0x1000 1L;
  Alcotest.(check int64) "shared memory" 1L
    (Memory.read_i64 child.Machine.mem 0x1000)

let test_txn_buffering () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  Memory.write_i64 m 0x1000 5L;
  let ctx = Machine.create m in
  let txn = Machine.start_txn ctx in
  (* speculative write goes to the buffer, not memory *)
  Semantics.raw_write ctx 0x1000 99L;
  Alcotest.(check int64) "memory untouched" 5L (Memory.read_i64 m 0x1000);
  (* speculative read sees the buffered value *)
  Alcotest.(check int64) "read own write" 99L (Semantics.raw_read ctx 0x1000);
  Alcotest.(check int) "one buffered write" 1
    (Hashtbl.length txn.Machine.twrites);
  Machine.rollback ctx txn;
  Alcotest.(check int64) "after rollback" 5L (Memory.read_i64 m 0x1000)

let test_observe_hook () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  let ctx = Machine.create m in
  let log = ref [] in
  ctx.Machine.observe <-
    Some (fun rw ~addr ~bytes:_ -> log := (rw, addr) :: !log);
  Semantics.raw_write ctx 0x1000 1L;
  ignore (Semantics.raw_read ctx 0x1008);
  Alcotest.(check int) "two events" 2 (List.length !log);
  Alcotest.(check bool) "write first" true
    (match List.rev !log with
     | (Machine.Write, 0x1000) :: (Machine.Read, 0x1008) :: _ -> true
     | _ -> false)

(* the sqrt and exp fragments, like pow, are resolved only at run time;
   check their numeric results against the host's math *)
let compile_run src =
  let img = Janus_jcc.Jcc.compile src in
  Run.run img

let test_sqrt_libcall () =
  let r =
    compile_run
      "extern double sqrt(double);\n\
       int main() { print_float(sqrt(2.0) + sqrt(9.0)); return 0; }"
  in
  let got = float_of_string (String.trim r.Run.output) in
  let want = Float.sqrt 2.0 +. 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "sqrt: %.6f vs %.6f" got want)
    true
    (Float.abs (got -. want) < 1e-4)

let test_exp_libcall () =
  (* the fragment is a truncated Taylor series; accept ~1e-3 *)
  let r =
    compile_run
      "extern double exp(double);\n\
       int main() { print_float(exp(1.0)); return 0; }"
  in
  let got = float_of_string (String.trim r.Run.output) in
  Alcotest.(check bool)
    (Printf.sprintf "exp(1) = %.6f" got)
    true
    (Float.abs (got -. Float.exp 1.0) < 1e-3)

let test_cache_model_misses () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x1000);
  let ctx = Machine.create m in
  ctx.Machine.model_cache <- true;
  let c0 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x1000);
  Alcotest.(check int) "cold line charged" Cost.cache_miss
    (ctx.Machine.cycles - c0);
  let c1 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x1008);
  Alcotest.(check int) "same line free" 0 (ctx.Machine.cycles - c1);
  let c2 = ctx.Machine.cycles in
  Semantics.raw_write ctx 0x1040 7L;
  Alcotest.(check int) "next line misses on write" Cost.cache_miss
    (ctx.Machine.cycles - c2)

let test_cache_model_off_by_default () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  let ctx = Machine.create m in
  let c0 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x1000);
  Alcotest.(check int) "no miss charged" 0 (ctx.Machine.cycles - c0)

let test_prefetch_warms_line () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x1000);
  let ctx = Machine.create m in
  ctx.Machine.model_cache <- true;
  (* execute a prefetch hint for 0x1080, then read it: no miss *)
  let pm = Operand.mem_abs 0x1080 in
  (match Semantics.exec ctx (Insn.Prefetch pm) ~len:0 with
   | Semantics.Fall -> ()
   | _ -> Alcotest.fail "prefetch must fall through");
  let c0 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x1080);
  Alcotest.(check int) "prefetched line hits" 0 (ctx.Machine.cycles - c0);
  let c1 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x10c0);
  Alcotest.(check int) "unprefetched line misses" Cost.cache_miss
    (ctx.Machine.cycles - c1)

let test_cache_fifo_eviction () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"big" ~start:0x100000 ~size:0x800000);
  let ctx = Machine.create m in
  ctx.Machine.model_cache <- true;
  ignore (Semantics.raw_read ctx 0x100000);
  (* touch more distinct lines than the warm set holds *)
  for i = 1 to Cost.cache_lines + 8 do
    ignore (Semantics.raw_read ctx (0x100000 + (i * Cost.cache_line)))
  done;
  let c0 = ctx.Machine.cycles in
  ignore (Semantics.raw_read ctx 0x100000);
  Alcotest.(check int) "first line was evicted" Cost.cache_miss
    (ctx.Machine.cycles - c0)

let test_fork_cold_cache () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  let ctx = Machine.create m in
  ctx.Machine.model_cache <- true;
  ignore (Semantics.raw_read ctx 0x1000);
  let child = Machine.fork ctx in
  Alcotest.(check bool) "flag inherited" true child.Machine.model_cache;
  let c0 = child.Machine.cycles in
  ignore (Semantics.raw_read child 0x1000);
  Alcotest.(check int) "child's private cache starts cold" Cost.cache_miss
    (child.Machine.cycles - c0)

let test_div_by_zero () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RAX, imm 10));
  Builder.ins b (Insn.Mov (reg Reg.RBX, imm 0));
  Builder.ins b (Insn.Idiv (reg Reg.RBX));
  Builder.ins b Insn.Hlt;
  let img = Builder.to_image b ~entry:"_start" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Run.run img);
       false
     with Semantics.Div_by_zero _ -> true)

(* Aborting a transaction between a cmp and its jcc must restore the
   condition flags (and the heap bump pointer): a speculative iteration
   that compares, faults and rolls back may not leak its flags into the
   branch the sequential re-execution is about to take. *)
let test_txn_rollback_flags_brk () =
  let m = Memory.create () in
  ignore (Memory.add_region m ~name:"a" ~start:0x1000 ~size:0x100);
  let ctx = Machine.create m in
  Machine.set ctx Reg.RAX 1L;
  Machine.set ctx Reg.RBX 2L;
  (* the compare whose jcc the transaction interrupts: 1 < 2 *)
  ignore (Semantics.exec ctx (Insn.Cmp (reg Reg.RAX, reg Reg.RBX)) ~len:0);
  let flags0 = ctx.Machine.flags and brk0 = ctx.Machine.brk in
  let txn = Machine.start_txn ctx in
  (* the doomed txn flips the comparison and bumps the heap *)
  ignore (Semantics.exec ctx (Insn.Cmp (reg Reg.RBX, reg Reg.RAX)) ~len:0);
  ctx.Machine.brk <- ctx.Machine.brk + 4096;
  Alcotest.(check bool) "txn changed flags" true (ctx.Machine.flags <> flags0);
  Machine.rollback ctx txn;
  Alcotest.(check int) "flags restored" flags0 ctx.Machine.flags;
  Alcotest.(check int) "brk restored" brk0 ctx.Machine.brk;
  (* the jcc now evaluates as if the aborted txn never ran *)
  Alcotest.(check bool) "lt holds" true (Semantics.eval_cond ctx Cond.Lt);
  Alcotest.(check bool) "gt does not" false (Semantics.eval_cond ctx Cond.Gt)

(* The packed flags word, the flat fregs array and the byte-packed GP
   register file must be observationally indistinguishable from the
   naive representation they replaced (four separate bools, per-register
   lane arrays, an int64 array): random operation sequences, including
   forks, transactions and rollbacks, are applied to both, then every
   condition code, FP lane and GP register is compared. Register writes
   go through both Machine.set and the interpreter's own path
   (Semantics.exec), and reads through both, so the two accessors are
   checked against each other as well as against the reference. *)

type ref_state = {
  mutable r_zf : bool;
  mutable r_lt : bool;
  mutable r_ult : bool;
  mutable r_sf : bool;
  r_fregs : float array array; (* [register].(lane) *)
  r_regs : int64 array;        (* [Reg.gp_index] *)
}

let copy_ref s =
  { s with r_fregs = Array.map Array.copy s.r_fregs;
           r_regs = Array.copy s.r_regs }

let restore_ref s ~from =
  s.r_zf <- from.r_zf;
  s.r_lt <- from.r_lt;
  s.r_ult <- from.r_ult;
  s.r_sf <- from.r_sf;
  Array.iteri (fun r lanes -> Array.blit lanes 0 s.r_fregs.(r) 0 4) from.r_fregs;
  Array.blit from.r_regs 0 s.r_regs 0 (Array.length s.r_regs)

type state_op =
  | Op_cmp of int64 * int64
  | Op_result of int64
  | Op_setf of int * int * float
  | Op_set of int * int64          (* Machine.set *)
  | Op_mov_imm of int * int64      (* Semantics: mov r, imm *)
  | Op_mov of int * int            (* Semantics: mov d, s *)
  | Op_add of int * int            (* Semantics: add d, s (sets flags) *)
  | Op_fork                        (* continue in a forked context *)
  | Op_start_txn
  | Op_rollback
  | Op_end_txn

let gp = Reg.gp_of_index

let exec ctx insn = ignore (Semantics.exec ctx insn ~len:0)

let apply_machine ctx = function
  | Op_cmp (a, b) -> Semantics.set_flags_cmp ctx a b
  | Op_result v -> Semantics.set_flags_result ctx v
  | Op_setf (r, lane, v) -> Machine.setf ctx (Reg.fp_of_index r) lane v
  | Op_set (r, v) -> Machine.set ctx (gp r) v
  | Op_mov_imm (r, v) -> exec ctx (Insn.Mov (reg (gp r), Operand.Imm v))
  | Op_mov (d, s) -> exec ctx (Insn.Mov (reg (gp d), reg (gp s)))
  | Op_add (d, s) -> exec ctx (Insn.Alu (Insn.Add, reg (gp d), reg (gp s)))
  | Op_fork | Op_start_txn | Op_rollback | Op_end_txn -> ()

let set_ref_result s v =
  let neg = Int64.compare v 0L < 0 in
  s.r_zf <- Int64.equal v 0L;
  s.r_lt <- neg;
  s.r_ult <- false;
  s.r_sf <- neg

let apply_ref s = function
  | Op_cmp (a, b) ->
    s.r_zf <- Int64.equal a b;
    s.r_lt <- Int64.compare a b < 0;
    s.r_ult <- Int64.unsigned_compare a b < 0;
    s.r_sf <- Int64.compare (Int64.sub a b) 0L < 0
  | Op_result v -> set_ref_result s v
  | Op_setf (r, lane, v) -> s.r_fregs.(r).(lane) <- v
  | Op_set (r, v) | Op_mov_imm (r, v) -> s.r_regs.(r) <- v
  | Op_mov (d, src) -> s.r_regs.(d) <- s.r_regs.(src)
  | Op_add (d, src) ->
    let v = Int64.add s.r_regs.(d) s.r_regs.(src) in
    s.r_regs.(d) <- v;
    set_ref_result s v
  | Op_fork | Op_start_txn | Op_rollback | Op_end_txn -> ()

let gen_state_op =
  let open QCheck2.Gen in
  (* mix full-range, extreme and tiny operands so equality, zero, sign
     and unsigned-wrap cases occur *)
  let i64 =
    oneof
      [ int64;
        oneofl [ Int64.min_int; Int64.max_int; -1L; 0L; 1L ];
        map Int64.of_int (int_range (-4) 4) ]
  in
  let r = int_range 0 (Reg.gp_count - 1) in
  frequency
    [
      (3, map2 (fun a b -> Op_cmp (a, b)) i64 i64);
      (2, map (fun v -> Op_result v) i64);
      ( 3,
        map3
          (fun r lane v -> Op_setf (r, lane, v))
          (int_range 0 (Reg.fp_count - 1))
          (int_range 0 3)
          (map Int64.float_of_bits int64) );
      (3, map2 (fun r v -> Op_set (r, v)) r i64);
      (3, map2 (fun r v -> Op_mov_imm (r, v)) r i64);
      (2, map2 (fun d s -> Op_mov (d, s)) r r);
      (2, map2 (fun d s -> Op_add (d, s)) r r);
      (1, pure Op_fork);
      (1, pure Op_start_txn);
      (1, pure Op_rollback);
      (1, pure Op_end_txn);
    ]

let prop_flat_state_equiv =
  QCheck2.Test.make ~count:300
    ~name:"flat machine state matches the reference representation"
    QCheck2.Gen.(list_size (int_range 0 60) gen_state_op)
    (fun ops ->
      let ctx = ref (Machine.create (Memory.create ())) in
      let s =
        {
          r_zf = false;
          r_lt = false;
          r_ult = false;
          r_sf = false;
          r_fregs = Array.init Reg.fp_count (fun _ -> Array.make 4 0.0);
          r_regs = Array.make Reg.gp_count 0L;
        }
      in
      (* the open transaction and the reference state it checkpointed *)
      let txn = ref None in
      List.iter
        (fun op ->
          (match op, !txn with
           | Op_fork, _ ->
             (* a fork starts outside any transaction *)
             ctx := Machine.fork !ctx;
             txn := None
           | Op_start_txn, None ->
             txn := Some (Machine.start_txn !ctx, copy_ref s)
           | Op_rollback, Some (t, saved) ->
             Machine.rollback !ctx t;
             restore_ref s ~from:saved;
             txn := None
           | Op_end_txn, Some _ ->
             Machine.end_txn !ctx;
             txn := None
           | _ -> ());
          apply_machine !ctx op;
          apply_ref s op)
        ops;
      let ctx = !ctx in
      let conds_agree =
        List.for_all
          (fun c ->
            Bool.equal
              (Semantics.eval_cond ctx c)
              (Cond.eval ~zf:s.r_zf ~lt:s.r_lt ~ult:s.r_ult ~sf:s.r_sf c))
          Cond.all
      in
      let lanes_agree = ref true in
      for r = 0 to Reg.fp_count - 1 do
        for lane = 0 to 3 do
          (* bit-level equality: exact, and NaN-proof *)
          if
            not
              (Int64.equal
                 (Int64.bits_of_float
                    (Machine.getf ctx (Reg.fp_of_index r) lane))
                 (Int64.bits_of_float s.r_fregs.(r).(lane)))
          then lanes_agree := false
        done
      done;
      let regs_agree = ref true in
      for r = 0 to Reg.gp_count - 1 do
        if not (Int64.equal (Machine.get ctx (gp r)) s.r_regs.(r)) then
          regs_agree := false
      done;
      conds_agree && !lanes_agree && !regs_agree)

(* Semantics' inlined memory fast path must be indistinguishable from
   the hooked path it bypasses: random 64-bit loads and stores at
   region edges, on pages not yet materialised, on a page two regions
   share and at unmapped addresses return the same values, raise the
   same Fault addresses and leave the same memory, whether or not an
   observer or the cache model is installed. *)

type mem_op = Load of int | Store of int * int64

let mem_layout () =
  let m = Memory.create () in
  let add name start size = ignore (Memory.add_region m ~name ~start ~size) in
  add "tail" 0x10000 100;          (* size not a multiple of 8 *)
  add "big" 0x40000 0x30000;       (* three pages, materialised lazily *)
  add "lo" 0x80000 0x100;          (* "lo" and "hi" share one page *)
  add "hi" 0x80100 0x100;
  m

let mem_regions = [ ("tail", 100); ("big", 0x30000); ("lo", 0x100); ("hi", 0x100) ]

let gen_mem_op =
  let open QCheck2.Gen in
  let edges =
    [ 0x10000; 0x10000 + 100; 0x40000; 0x50000; 0x60000; 0x70000; 0x80000;
      0x80100; 0x80200; 0x20000; 0; -8; 1 lsl 40 ]
  in
  let addr =
    oneof
      [ map2 ( + ) (oneofl edges) (int_range (-16) 16);
        int_range 0x40000 0x70000 ]
  in
  let v = oneof [ int64; oneofl [ Int64.min_int; -1L; 0L ] ] in
  frequency
    [ (1, map (fun a -> Load a) addr); (1, map2 (fun a v -> Store (a, v)) addr v) ]

let prop_memory_fast_path =
  QCheck2.Test.make ~count:300
    ~name:"memory fast path matches the hooked path"
    QCheck2.Gen.(list_size (int_range 1 40) gen_mem_op)
    (fun ops ->
      let fast = Machine.create (mem_layout ()) in
      let observed = Machine.create (mem_layout ()) in
      observed.Machine.observe <- Some (fun _ ~addr:_ ~bytes:_ -> ());
      let cached = Machine.create (mem_layout ()) in
      cached.Machine.model_cache <- true;
      let run ctx op =
        match op with
        | Load a -> (
          match Semantics.raw_read ctx a with
          | v -> Ok (Some v)
          | exception Memory.Fault f -> Error f)
        | Store (a, v) -> (
          match Semantics.raw_write ctx a v with
          | () -> Ok None
          | exception Memory.Fault f -> Error f)
      in
      let same_results =
        List.for_all
          (fun op ->
            let r = run fast op in
            r = run observed op && r = run cached op)
          ops
      in
      let contents ctx =
        List.map
          (fun (name, size) ->
            let r = Option.get (Memory.region_by_name ctx.Machine.mem name) in
            Memory.snapshot ctx.Machine.mem r.Memory.start size)
          mem_regions
      in
      same_results
      && contents fast = contents observed
      && contents fast = contents cached)

(* A region's window must be invisible: whichever accessor touches a
   region first, at either end or in the middle, and however the window
   grows afterwards, every value, every Fault address and every final
   byte equals a model that backs each region with one zeroed [Bytes]
   of its full size, the eager representation. The fast-path property
   above compares two paths over one shared window, so a window bug
   common to both escapes it; this one compares against the model. *)

type win_op =
  | W_read64 of int
  | W_write64 of int * int64
  | W_read8 of int
  | W_write8 of int * int
  | W_blit of int * string
  | W_snapshot of int * int
  | W_raw_read of int
  | W_raw_write of int * int64

(* a stack-shaped region (its top 8 bytes past a granule, like
   [Program]'s stacks) and a heap-shaped one, with unmapped gaps *)
let win_regions = [ ("stack", 0x100000, 0x20008); ("heap", 0x200000, 0x30000) ]

let gen_win_op =
  let open QCheck2.Gen in
  let addr =
    oneof
      [ map2 ( + )
          (oneofl
             [ 0x100000; 0x110000; 0x120008; 0x200000; 0x218000; 0x230000;
               0x160000 ])
          (int_range (-24) 24);
        int_range 0x100000 0x120010;
        int_range 0x200000 0x230010 ]
  in
  let v = oneof [ int64; oneofl [ Int64.min_int; -1L; 0L ] ] in
  let len = int_range 0 40 in
  frequency
    [ (2, map (fun a -> W_read64 a) addr);
      (2, map2 (fun a v -> W_write64 (a, v)) addr v);
      (1, map (fun a -> W_read8 a) addr);
      (1, map2 (fun a v -> W_write8 (a, v)) addr (int_range 0 255));
      (1, map2 (fun a s -> W_blit (a, s)) addr (string_size len));
      (1, map2 (fun a n -> W_snapshot (a, n)) addr len);
      (2, map (fun a -> W_raw_read a) addr);
      (2, map2 (fun a v -> W_raw_write (a, v)) addr v) ]

let prop_memory_window_model =
  QCheck2.Test.make ~count:300
    ~name:"memory windows match an eagerly backed model"
    QCheck2.Gen.(list_size (int_range 1 60) gen_win_op)
    (fun ops ->
      let mem = Memory.create () in
      List.iter
        (fun (name, start, size) ->
          ignore (Memory.add_region mem ~name ~start ~size))
        win_regions;
      let ctx = Machine.create mem in
      let model =
        List.map (fun (_, start, size) -> (start, Bytes.make size '\000'))
          win_regions
      in
      (* the model's backing and offset for [addr..addr+n-1], faulting
         exactly as Memory specifies *)
      let span addr n =
        match
          List.find_opt
            (fun (start, b) -> addr >= start && addr - start < Bytes.length b)
            model
        with
        | None -> raise (Memory.Fault addr)
        | Some (start, b) ->
          if addr + n > start + Bytes.length b then
            raise (Memory.Fault (addr + n - 1));
          (b, addr - start)
      in
      let real op =
        match op with
        | W_read64 a -> Int64.to_string (Memory.read_i64 mem a)
        | W_write64 (a, v) -> Memory.write_i64 mem a v; ""
        | W_read8 a -> string_of_int (Memory.read_u8 mem a)
        | W_write8 (a, v) -> Memory.write_u8 mem a v; ""
        | W_blit (a, s) -> Memory.blit mem ~addr:a (Bytes.of_string s); ""
        | W_snapshot (a, n) -> Bytes.to_string (Memory.snapshot mem a n)
        | W_raw_read a -> Int64.to_string (Semantics.raw_read ctx a)
        | W_raw_write (a, v) -> Semantics.raw_write ctx a v; ""
      in
      let reference op =
        match op with
        | W_read64 a | W_raw_read a ->
          let b, off = span a 8 in
          Int64.to_string (Bytes.get_int64_le b off)
        | W_write64 (a, v) | W_raw_write (a, v) ->
          let b, off = span a 8 in
          Bytes.set_int64_le b off v; ""
        | W_read8 a ->
          let b, off = span a 1 in
          string_of_int (Char.code (Bytes.get b off))
        | W_write8 (a, v) ->
          let b, off = span a 1 in
          Bytes.set b off (Char.chr v); ""
        | W_blit (a, s) ->
          let b, off = span a (String.length s) in
          Bytes.blit_string s 0 b off (String.length s); ""
        | W_snapshot (a, n) ->
          let b, off = span a n in
          Bytes.sub_string b off n
      in
      let outcome f op =
        match f op with v -> Ok v | exception Memory.Fault f -> Error f
      in
      List.for_all (fun op -> outcome real op = outcome reference op) ops
      && List.for_all2
           (fun (_, start, size) (_, b) ->
             Bytes.equal (Memory.snapshot mem start size) b)
           win_regions model)

(* The DBM runs its traces as closures from [Semantics.compile] and its
   basic blocks (like the VM) through [Semantics.exec_costed]. For any
   instruction, a one-slot compiled chain and the reference leave equal
   registers, FP lanes, flags, rip, cycles, icount, memory and output,
   return the same control result (or raise the same exception), make
   the same observer calls (each with the rip it saw) and leave the same
   transaction read and write sets and warm cache lines, with no hook,
   an observer, an open transaction or the cache model installed. *)

type exec_mode = No_hook | Observer | Transaction | Cache_model

type exec_case = {
  e_insn : Insn.t;
  e_addr : int;
  e_len : int;
  e_regs : int64 array;          (* by Reg.gp_index *)
  e_fregs : float array;         (* lane l of register r at r*4+l *)
  e_flags : int;
  e_words : (int * int64) list;  (* data region word index, value *)
}

let exec_base = 0x10000
let exec_size = 0x1000

(* registers below this index hold addresses inside the data region,
   the others small integers, so that generated memory operands (base
   from the first, index from the second) mostly land in the region *)
let addr_regs = 8

let gen_exec_case =
  let open QCheck2.Gen in
  let i64 =
    oneof
      [ int64;
        oneofl [ Int64.min_int; Int64.max_int; -1L; 0L; 1L; 63L; 64L ];
        map Int64.of_int (int_range (-8) 8) ]
  in
  let address = map (fun k -> Int64.of_int (exec_base + 0x800 + (8 * k)))
      (int_range (-200) 200) in
  let reg_value i =
    if i < addr_regs then frequency [ (8, address); (1, i64) ]
    else frequency [ (4, map Int64.of_int (int_range 0 8)); (1, i64) ]
  in
  let gp = map Reg.gp_of_index (int_range 0 (Reg.gp_count - 1)) in
  let base = map Reg.gp_of_index (int_range 0 (addr_regs - 1)) in
  let index = map Reg.gp_of_index (int_range addr_regs (Reg.gp_count - 1)) in
  let fp = map Reg.fp_of_index (int_range 0 (Reg.fp_count - 1)) in
  let disp = oneof [ map (fun k -> 8 * k) (int_range (-8) 8); int_range (-64) 64 ] in
  let scale = oneofl [ 1; 2; 4; 8 ] in
  let mem =
    oneof
      [ map2 (fun b d -> Operand.mem_base ~disp:d b) base disp;
        map4 (fun b i s d -> Operand.mem_bi ~disp:d ~scale:s b i)
          base index scale disp;
        map3
          (fun i s d -> Operand.mem ~index:i ~scale:s ~disp:(exec_base + d) ())
          index scale (int_range 0 0x200);
        map (fun d -> Operand.mem_abs (exec_base + d)) (int_range 0 0xff8) ]
  in
  let r = map (fun g -> Operand.Reg g) gp in
  let i = map (fun v -> Operand.Imm v) i64 in
  let m = map (fun m -> Operand.Mem m) mem in
  let rm = oneof [ r; m ] and rim = oneof [ r; i; m ] in
  let fop = oneof [ map (fun f -> Operand.Freg f) fp;
                    map (fun m -> Operand.Fmem m) mem ] in
  let alu = oneofl Insn.[ Add; Sub; Imul; And; Or; Xor; Shl; Shr; Sar ] in
  let fbin = oneofl Insn.[ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ] in
  let width = oneofl Insn.[ Scalar; X; Y ] in
  let cond = oneofl Cond.all in
  let target = int_range 0x400000 0x400100 in
  let specialised =
    oneof
      [ pure Insn.Nop;
        map2 (fun d s -> Insn.Mov (d, s)) rm rim;
        map3 (fun op d s -> Insn.Alu (op, d, s)) alu r rim;
        map2 (fun a b -> Insn.Cmp (a, b)) rm rim;
        map2 (fun c t -> Insn.Jcc (c, t)) cond target;
        map (fun t -> Insn.Jmp (Insn.Direct t)) target;
        map (fun t -> Insn.Call (Insn.Direct t)) target;
        pure Insn.Ret;
        map3 (fun w d s -> Insn.Fmov (w, d, s)) width fop fop;
        map4 (fun w op d s -> Insn.Fbin (w, op, d, s)) width fbin fp fop ]
  in
  let fallback =
    oneof
      [ pure Insn.Hlt;
        map3 (fun op d s -> Insn.Alu (op, d, s)) alu m rim;
        map2 (fun d m -> Insn.Lea (d, m)) gp mem;
        map (fun o -> Insn.Neg o) rm;
        map (fun o -> Insn.Not o) rm;
        map (fun o -> Insn.Idiv o) rim;
        map2 (fun a b -> Insn.Test (a, b)) rim rim;
        map (fun o -> Insn.Jmp (Insn.Indirect o)) rim;
        map (fun o -> Insn.Call (Insn.Indirect o)) rim;
        map (fun o -> Insn.Push o) rim;
        map (fun o -> Insn.Pop o) rm;
        map3 (fun c d s -> Insn.Cmov (c, d, s)) cond gp rim;
        map2 (fun a b -> Insn.Fcmp (a, b)) fp fop;
        map3 (fun w d s -> Insn.Fsqrt (w, d, s)) width fp fop;
        map3 (fun w d s -> Insn.Fbcast (w, d, s)) width fp fop;
        map2 (fun d s -> Insn.Cvtsi2sd (d, s)) fp rim;
        map2 (fun d s -> Insn.Cvtsd2si (d, s)) gp fop;
        map (fun n -> Insn.Syscall n)
          (oneofl Insn.[ sys_exit; sys_write_int; sys_write_float;
                         sys_read_int ]);
        map (fun m -> Insn.Prefetch m) mem ]
  in
  let lane =
    oneof
      [ float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ];
        map float_of_int (int_range (-4) 4) ]
  in
  let* e_insn = frequency [ (3, specialised); (1, fallback) ] in
  let* e_addr = int_range 0x400000 0x400100 in
  let* e_len = int_range 1 12 in
  let* e_regs =
    flatten_a (Array.init Reg.gp_count reg_value)
  in
  let* e_fregs = array_repeat (Reg.fp_count * 4) lane in
  let* e_flags = int_range 0 15 in
  let+ e_words =
    list_size (int_range 0 40)
      (pair (int_range 0 ((exec_size / 8) - 1)) i64)
  in
  { e_insn; e_addr; e_len; e_regs; e_fregs; e_flags; e_words }

(* a context in [c]'s state with [mode]'s hook installed; the observer
   logs into [log] *)
let exec_context c mode log =
  let mem = Memory.create () in
  ignore (Memory.add_region mem ~name:"data" ~start:exec_base ~size:exec_size);
  List.iter (fun (w, v) -> Memory.write_i64 mem (exec_base + (8 * w)) v)
    c.e_words;
  let ctx = Machine.create mem in
  Array.iteri (fun i v -> Machine.set ctx (Reg.gp_of_index i) v) c.e_regs;
  Array.iteri
    (fun i v -> Machine.setf ctx (Reg.fp_of_index (i / 4)) (i mod 4) v)
    c.e_fregs;
  ctx.Machine.flags <- c.e_flags;
  Queue.push 77L ctx.Machine.input;
  (match mode with
   | No_hook -> ()
   | Observer ->
     ctx.Machine.observe <-
       Some (fun rw ~addr ~bytes ->
           log := (rw, addr, bytes, ctx.Machine.rip) :: !log)
   | Transaction -> ignore (Machine.start_txn ctx)
   | Cache_model -> ctx.Machine.model_cache <- true);
  ctx

(* everything an execution can leave behind *)
let exec_footprint ctx log =
  let sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
  ( ( Bytes.to_string ctx.Machine.regs,
      Array.map Int64.bits_of_float ctx.Machine.fregs,
      (ctx.Machine.flags, ctx.Machine.rip, ctx.Machine.cycles,
       ctx.Machine.icount, ctx.Machine.halted, ctx.Machine.exit_code) ),
    ( Bytes.to_string (Memory.snapshot ctx.Machine.mem exec_base exec_size),
      Buffer.contents ctx.Machine.out,
      List.rev !log ),
    ( (match ctx.Machine.txn with
       | Some t -> (sorted t.Machine.treads, sorted t.Machine.twrites)
       | None -> ([], [])),
      List.of_seq (Queue.to_seq ctx.Machine.warm_fifo) ) )

let prop_compiled_slot_matches_reference =
  QCheck2.Test.make ~count:1000
    ~name:"a compiled slot matches exec_costed under every hook"
    ~print:(fun c -> Printf.sprintf "%s at %#x, len %d"
               (Insn.to_string c.e_insn) c.e_addr c.e_len)
    gen_exec_case
    (fun c ->
      let insn = c.e_insn and addr = c.e_addr and len = c.e_len in
      let cost = Cost.of_insn insn in
      let compiled =
        Semantics.compile insn ~addr ~len ~cost ~jumped:Semantics.Jump
          ~stopped:Semantics.Stop (fun _ -> Semantics.Fall)
      in
      let reference ctx =
        ctx.Machine.rip <- addr;
        Semantics.exec_costed ctx insn ~len ~cost
      in
      let run exec mode =
        let log = ref [] in
        let ctx = exec_context c mode log in
        let result =
          match exec ctx with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        (result, exec_footprint ctx log)
      in
      List.for_all
        (fun mode -> run compiled mode = run reference mode)
        [ No_hook; Observer; Transaction; Cache_model ])

let test_out_of_fuel () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.label b "spin";
  Builder.jmp b "spin";
  let img = Builder.to_image b ~entry:"_start" in
  Alcotest.check_raises "fuel" Run.Out_of_fuel (fun () ->
      ignore (Run.run ~fuel:1000 img))

let tests =
  [
    Alcotest.test_case "memory regions" `Quick test_memory_regions;
    Alcotest.test_case "sum loop" `Quick test_sum_loop;
    Alcotest.test_case "pow libcall" `Quick test_pow_libcall;
    Alcotest.test_case "sqrt libcall" `Quick test_sqrt_libcall;
    Alcotest.test_case "exp libcall" `Quick test_exp_libcall;
    Alcotest.test_case "par_for correctness" `Quick test_par_for;
    Alcotest.test_case "par_for speedup" `Quick test_par_for_speedup;
    Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
    Alcotest.test_case "txn buffering" `Quick test_txn_buffering;
    Alcotest.test_case "txn rollback restores flags and brk" `Quick
      test_txn_rollback_flags_brk;
    QCheck_alcotest.to_alcotest prop_flat_state_equiv;
    QCheck_alcotest.to_alcotest prop_memory_fast_path;
    QCheck_alcotest.to_alcotest prop_memory_window_model;
    QCheck_alcotest.to_alcotest prop_compiled_slot_matches_reference;
    Alcotest.test_case "observe hook" `Quick test_observe_hook;
    Alcotest.test_case "cache model misses" `Quick test_cache_model_misses;
    Alcotest.test_case "cache model off by default" `Quick
      test_cache_model_off_by_default;
    Alcotest.test_case "prefetch warms line" `Quick test_prefetch_warms_line;
    Alcotest.test_case "cache fifo eviction" `Quick test_cache_fifo_eviction;
    Alcotest.test_case "fork starts cold" `Quick test_fork_cold_cache;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
  ]
