(* Unit and property tests for the VX64 ISA library. *)

open Janus_vx

let insn = Alcotest.testable Insn.pp ( = )

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_gp =
  QCheck2.Gen.map Reg.gp_of_index (QCheck2.Gen.int_range 0 (Reg.gp_count - 1))

let gen_fp =
  QCheck2.Gen.map Reg.fp_of_index (QCheck2.Gen.int_range 0 (Reg.fp_count - 1))

let gen_cond =
  QCheck2.Gen.map Cond.of_int (QCheck2.Gen.int_range 0 11)

let gen_mem =
  let open QCheck2.Gen in
  let* base = opt gen_gp in
  let* index = opt gen_gp in
  let* scale = oneofl [ 1; 2; 4; 8 ] in
  let* disp = int_range (-100000) 100000 in
  return (Operand.mem ?base ?index ~scale ~disp ())

let gen_imm =
  let open QCheck2.Gen in
  oneof
    [
      map Int64.of_int (int_range (-128) 127);
      map Int64.of_int (int_range (-1000000) 1000000);
      ui64;
    ]

let gen_operand =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Operand.Reg r) gen_gp;
      map (fun i -> Operand.Imm i) gen_imm;
      map (fun m -> Operand.Mem m) gen_mem;
    ]

let gen_fop =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Operand.Freg r) gen_fp;
      map (fun m -> Operand.Fmem m) gen_mem;
    ]

let gen_alu =
  QCheck2.Gen.oneofl
    Insn.[ Add; Sub; Imul; And; Or; Xor; Shl; Shr; Sar ]

let gen_fbin =
  QCheck2.Gen.oneofl Insn.[ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ]

let gen_width = QCheck2.Gen.oneofl Insn.[ Scalar; X; Y ]

let gen_addr = QCheck2.Gen.int_range 0 0x7ffffff

let gen_insn =
  let open QCheck2.Gen in
  oneof
    [
      return Insn.Nop;
      return Insn.Hlt;
      return Insn.Ret;
      map2 (fun d s -> Insn.Mov (d, s)) gen_operand gen_operand;
      map2 (fun r m -> Insn.Lea (r, m)) gen_gp gen_mem;
      (let* op = gen_alu in
       let* d = gen_operand in
       let* s = gen_operand in
       return (Insn.Alu (op, d, s)));
      map (fun o -> Insn.Neg o) gen_operand;
      map (fun o -> Insn.Not o) gen_operand;
      map (fun o -> Insn.Idiv o) gen_operand;
      map2 (fun a b -> Insn.Cmp (a, b)) gen_operand gen_operand;
      map2 (fun a b -> Insn.Test (a, b)) gen_operand gen_operand;
      map (fun a -> Insn.Jmp (Insn.Direct a)) gen_addr;
      map (fun o -> Insn.Jmp (Insn.Indirect o)) gen_operand;
      map2 (fun c a -> Insn.Jcc (c, a)) gen_cond gen_addr;
      map (fun a -> Insn.Call (Insn.Direct a)) gen_addr;
      map (fun o -> Insn.Call (Insn.Indirect o)) gen_operand;
      map (fun o -> Insn.Push o) gen_operand;
      map (fun o -> Insn.Pop o) gen_operand;
      (let* c = gen_cond in
       let* r = gen_gp in
       let* s = gen_operand in
       return (Insn.Cmov (c, r, s)));
      (let* w = gen_width in
       let* d = gen_fop in
       let* s = gen_fop in
       return (Insn.Fmov (w, d, s)));
      (let* w = gen_width in
       let* op = gen_fbin in
       let* d = gen_fp in
       let* s = gen_fop in
       return (Insn.Fbin (w, op, d, s)));
      (let* w = gen_width in
       let* d = gen_fp in
       let* s = gen_fop in
       return (Insn.Fsqrt (w, d, s)));
      map2 (fun d s -> Insn.Fcmp (d, s)) gen_fp gen_fop;
      (let* w = gen_width in
       let* d = gen_fp in
       let* s = gen_fop in
       return (Insn.Fbcast (w, d, s)));
      map2 (fun d s -> Insn.Cvtsi2sd (d, s)) gen_fp gen_operand;
      map2 (fun d s -> Insn.Cvtsd2si (d, s)) gen_gp gen_fop;
      map (fun n -> Insn.Syscall n) (int_range 0 255);
      map (fun m -> Insn.Prefetch m) gen_mem;
    ]

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

(* gp_of_index is an explicit table and gp_index is %identity (the
   constructor's representation), so this also pins the declaration
   order the register file's byte offsets rely on *)
let test_reg_roundtrip () =
  for i = 0 to Reg.gp_count - 1 do
    Alcotest.(check int) "gp index" i (Reg.gp_index (Reg.gp_of_index i))
  done;
  for i = 0 to Reg.fp_count - 1 do
    Alcotest.(check int) "fp index" i (Reg.fp_index (Reg.fp_of_index i))
  done

let test_cond_negate_involutive () =
  List.iter
    (fun c ->
       Alcotest.(check bool) "negate^2 = id" true
         (Cond.negate (Cond.negate c) = c))
    Cond.all

let test_cond_eval () =
  (* 3 < 5 signed: zf=false lt=true ult=true sf=true (3-5 negative) *)
  let e c = Cond.eval ~zf:false ~lt:true ~ult:true ~sf:true c in
  Alcotest.(check bool) "lt" true (e Cond.Lt);
  Alcotest.(check bool) "le" true (e Cond.Le);
  Alcotest.(check bool) "gt" false (e Cond.Gt);
  Alcotest.(check bool) "ge" false (e Cond.Ge);
  Alcotest.(check bool) "ne" true (e Cond.Ne);
  Alcotest.(check bool) "eq" false (e Cond.Eq)

let test_encode_simple () =
  let open Insn in
  let i = Mov (Operand.Reg Reg.RAX, Operand.Imm 42L) in
  let buf = Encode.encode i in
  let i', len = Decode.one buf 0 in
  Alcotest.check insn "roundtrip" i i';
  Alcotest.(check int) "length" (Bytes.length buf) len

let test_encode_sizes_vary () =
  let open Insn in
  let small = Mov (Operand.Reg Reg.RAX, Operand.Imm 1L) in
  let large = Mov (Operand.Reg Reg.RAX, Operand.Imm 0x123456789AL) in
  Alcotest.(check bool) "imm8 shorter than imm64" true
    (Encode.size small < Encode.size large)

let test_encode_list () =
  let open Insn in
  let prog =
    [
      Mov (Operand.Reg Reg.RCX, Operand.Imm 10L);
      Alu (Add, Operand.Reg Reg.RAX, Operand.Reg Reg.RCX);
      Ret;
    ]
  in
  let buf = Encode.encode_list prog in
  let decoded = List.map (fun (_, i, _) -> i) (Decode.all buf) in
  Alcotest.(check (list insn)) "list roundtrip" prog decoded

let test_builder_labels () =
  let b = Builder.create () in
  Builder.label b "entry";
  Builder.ins b (Insn.Mov (Operand.Reg Reg.RAX, Operand.Imm 0L));
  Builder.jcc b Cond.Eq "done";
  Builder.jmp b "entry";
  Builder.label b "done";
  Builder.ins b Insn.Ret;
  let insns = Builder.finish b in
  (* the jcc target must be the byte address of Ret *)
  match insns with
  | [ _; Insn.Jcc (Cond.Eq, t); Insn.Jmp (Insn.Direct e); Insn.Ret ] ->
    Alcotest.(check int) "jmp to entry" Layout.text_base e;
    let ret_off =
      List.fold_left (fun acc i -> acc + Encode.size i) 0
        [ List.nth insns 0; List.nth insns 1; List.nth insns 2 ]
    in
    Alcotest.(check int) "jcc to done" (Layout.text_base + ret_off) t
  | _ -> Alcotest.fail "unexpected instruction shape"

let test_builder_undefined_label () =
  let b = Builder.create () in
  Builder.jmp b "nowhere";
  Alcotest.check_raises "undefined label"
    (Invalid_argument "Builder.finish: undefined label \"nowhere\"")
    (fun () -> ignore (Builder.finish b))

let test_image_roundtrip () =
  let b = Builder.create () in
  Builder.label b "main";
  Builder.ins b (Insn.Mov (Operand.Reg Reg.RAX, Operand.Imm 7L));
  Builder.ins b Insn.Hlt;
  let data = Builder.Data.create () in
  Builder.Data.label data "tbl";
  Builder.Data.f64 data 3.14;
  Builder.Data.i64 data 99L;
  let img =
    Builder.to_image b ~entry:"main"
      ~data:(Builder.Data.contents data)
      ~bss_size:128
      ~externals:[ "pow"; "sqrt" ]
  in
  let img' = Image.of_bytes (Image.to_bytes img) in
  Alcotest.(check int) "entry" img.Image.entry img'.Image.entry;
  Alcotest.(check int) "bss" 128 img'.Image.bss_size;
  Alcotest.(check (list string)) "externals" [ "pow"; "sqrt" ]
    img'.Image.externals;
  Alcotest.(check bool) "text" true (Bytes.equal img.Image.text img'.Image.text);
  Alcotest.(check bool) "data" true (Bytes.equal img.Image.data img'.Image.data);
  Alcotest.(check int) "size accounting" (Image.size img)
    (Bytes.length (Image.to_bytes img))

let test_plt_lookup () =
  let b = Builder.create () in
  Builder.label b "main";
  Builder.ins b Insn.Hlt;
  let img = Builder.to_image b ~entry:"main" ~externals:[ "pow"; "exp" ] in
  Alcotest.(check (option int)) "pow slot"
    (Some (Layout.plt_slot_addr 0))
    (Image.plt_addr img "pow");
  Alcotest.(check (option string)) "addr back to name" (Some "exp")
    (Image.external_of_addr img (Layout.plt_slot_addr 1));
  Alcotest.(check (option string)) "non-plt addr" None
    (Image.external_of_addr img Layout.text_base)

let test_successors () =
  let open Insn in
  Alcotest.(check (list int)) "jcc" [ 100; 50 ]
    (successors ~fallthrough:50 (Jcc (Cond.Eq, 100)));
  Alcotest.(check (list int)) "ret" [] (successors ~fallthrough:50 Ret);
  Alcotest.(check (list int)) "call falls through" [ 50 ]
    (successors ~fallthrough:50 (Call (Direct 999)));
  Alcotest.(check (list int)) "exit syscall" []
    (successors ~fallthrough:50 (Syscall sys_exit))

let test_uses_defs () =
  let open Insn in
  let i =
    Alu
      ( Add,
        Operand.Mem (Operand.mem_bi ~disp:8 ~scale:4 Reg.R8 Reg.RAX),
        Operand.Reg Reg.RSI )
  in
  Alcotest.(check (list string)) "uses"
    [ "r8"; "rax"; "rsi" ]
    (List.map Reg.gp_name (gp_uses i));
  Alcotest.(check (list string)) "defs (mem dst writes no reg)" []
    (List.map Reg.gp_name (gp_defs i));
  let w = mems_written i in
  Alcotest.(check int) "one store" 1 (List.length w)

let test_cost_sanity () =
  let open Insn in
  let load = Mov (Operand.Reg Reg.RAX, Operand.Mem (Operand.mem_base Reg.R8)) in
  let reg = Mov (Operand.Reg Reg.RAX, Operand.Reg Reg.RBX) in
  Alcotest.(check bool) "load costlier than reg-reg" true
    (Cost.of_insn load > Cost.of_insn reg);
  Alcotest.(check bool) "div costlier than add" true
    (Cost.of_insn (Idiv (Operand.Reg Reg.RBX))
     > Cost.of_insn (Alu (Add, Operand.Reg Reg.RAX, Operand.Reg Reg.RBX)));
  (* a Y-width packed op is cheaper than 4 scalar ops *)
  let scalar = Fbin (Scalar, Fadd, Reg.XMM 0, Operand.Freg (Reg.XMM 1)) in
  let packed = Fbin (Y, Fadd, Reg.XMM 0, Operand.Freg (Reg.XMM 1)) in
  Alcotest.(check bool) "vector win" true
    (Cost.of_insn packed < 4 * Cost.of_insn scalar)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_encode_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"encode/decode roundtrip"
    ~print:Insn.to_string gen_insn (fun i ->
      let buf = Encode.encode i in
      let i', len = Decode.one buf 0 in
      i = i' && len = Bytes.length buf)

let prop_encode_list_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"encode/decode list roundtrip"
    QCheck2.Gen.(list_size (int_range 1 40) gen_insn)
    (fun is ->
      let buf = Encode.encode_list is in
      let decoded = List.map (fun (_, i, _) -> i) (Decode.all buf) in
      decoded = is)

let prop_size_positive =
  QCheck2.Test.make ~count:500 ~name:"every instruction encodes to >= 1 byte"
    gen_insn (fun i -> Encode.size i >= 1)

let prop_cond_eval_negate =
  QCheck2.Test.make ~count:200 ~name:"cond eval of negation is complement"
    QCheck2.Gen.(
      tup5 gen_cond bool bool bool bool)
    (fun (c, zf, lt, ult, sf) ->
      (* keep flags consistent: zf implies not lt/ult *)
      let lt = lt && not zf and ult = ult && not zf in
      Cond.eval ~zf ~lt ~ult ~sf c
      = not (Cond.eval ~zf ~lt ~ult ~sf (Cond.negate c)))

let prop_cost_positive =
  QCheck2.Test.make ~count:500 ~name:"every instruction costs >= 1 cycle"
    gen_insn (fun i -> Cost.of_insn i >= 1)

let prop_disasm_total =
  QCheck2.Test.make ~count:500 ~name:"pretty-printer is total and non-empty"
    gen_insn (fun i -> String.length (Insn.to_string i) > 0)

let prop_vector_width_cost_monotone =
  QCheck2.Test.make ~count:200
    ~name:"packed FP ops cost no less than scalar, at most +2"
    QCheck2.Gen.(tup3 gen_fbin gen_fp gen_fop)
    (fun (op, d, s) ->
      let c w = Cost.of_insn (Insn.Fbin (w, op, d, s)) in
      let sc = c Insn.Scalar in
      c Insn.X >= sc && c Insn.Y >= c Insn.X && c Insn.Y <= sc + 2)

let prop_memory_operand_costs_more =
  QCheck2.Test.make ~count:200 ~name:"a memory source adds read cost"
    QCheck2.Gen.(tup2 gen_gp gen_mem)
    (fun (r, m) ->
      Cost.of_insn (Insn.Mov (Operand.Reg r, Operand.Mem m))
      = Cost.of_insn (Insn.Mov (Operand.Reg r, Operand.Imm 1L))
        + Cost.mem_read)

(* malformed input must raise the decoder's typed error, never return a
   wrong instruction or crash differently *)
let test_decode_rejects_garbage () =
  (* unknown opcode *)
  Alcotest.(check bool) "bad opcode" true
    (try
       ignore (Decode.one (Bytes.of_string "\xff\x00\x00\x00") 0);
       false
     with Decode.Bad_encoding _ -> true);
  (* truncated operand *)
  let mov = Encode.encode (Insn.Mov (Operand.Reg Reg.RAX, Operand.Imm 1L)) in
  let truncated = Bytes.sub mov 0 (Bytes.length mov - 1) in
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Decode.one truncated 0);
       false
     with Decode.Bad_encoding _ -> true);
  (* bad operand tag *)
  Alcotest.(check bool) "bad operand tag" true
    (try
       ignore (Decode.one (Bytes.of_string "\x02\x09") 0);
       false
     with Decode.Bad_encoding _ -> true)

let test_image_rejects_bad_magic () =
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Image.of_bytes (Bytes.of_string "ELF!\x00\x00\x00\x00"));
       false
     with Image.Bad_image _ -> true)

(* [of_bytes] is total: a truncated or byte-mutated suite image either
   decodes, to an image that re-encodes to exactly those bytes, or
   raises [Bad_image]; the originals round-trip *)
let suite_images =
  lazy
    (List.map
       (fun b ->
          let img = Janus_suite.Suite.compile b in
          (img, Image.to_bytes img))
       (Janus_suite.Suite.adv_fission :: Janus_suite.Suite.adversarial
        @ Janus_suite.Suite.all))

let prop_image_of_bytes_total =
  QCheck2.Test.make ~count:400
    ~name:"image of_bytes raises only Bad_image under truncation and mutation"
    QCheck2.Gen.(
      triple (int_bound 1000)
        (oneof [ int_bound 40; int_bound 100_000 ])
        (int_range 1 255))
    (fun (which, where, mask) ->
       let images = Lazy.force suite_images in
       let img, good = List.nth images (which mod List.length images) in
       let k = where mod Bytes.length good in
       let mutated = Bytes.copy good in
       Bytes.set mutated k (Char.chr (Char.code (Bytes.get good k) lxor mask));
       let canonical b =
         match Image.of_bytes b with
         | i -> Bytes.equal (Image.to_bytes i) b
         | exception Image.Bad_image _ -> true
       in
       Image.of_bytes good = img
       && canonical (Bytes.sub good 0 k)
       && canonical mutated)

let prop_decode_never_wrong =
  (* decoding any prefix-corrupted encoding either raises Bad_encoding
     or yields a decodable instruction — never an inconsistent length *)
  QCheck2.Test.make ~count:300 ~name:"decode is length-consistent on corruption"
    QCheck2.Gen.(pair gen_insn (int_range 0 255))
    (fun (i, byte) ->
      let buf = Encode.encode i in
      Bytes.set buf 0 (Char.chr byte);
      match Decode.one buf 0 with
      | _, len -> len >= 1 && len <= Bytes.length buf
      | exception Decode.Bad_encoding _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_encode_roundtrip;
      prop_encode_list_roundtrip;
      prop_size_positive;
      prop_cond_eval_negate;
      prop_cost_positive;
      prop_disasm_total;
      prop_vector_width_cost_monotone;
      prop_memory_operand_costs_more;
      prop_decode_never_wrong;
      prop_image_of_bytes_total;
    ]

let tests =
  [
    Alcotest.test_case "reg index roundtrip" `Quick test_reg_roundtrip;
    Alcotest.test_case "cond negate involutive" `Quick
      test_cond_negate_involutive;
    Alcotest.test_case "cond eval" `Quick test_cond_eval;
    Alcotest.test_case "encode simple" `Quick test_encode_simple;
    Alcotest.test_case "encode sizes vary" `Quick test_encode_sizes_vary;
    Alcotest.test_case "encode list" `Quick test_encode_list;
    Alcotest.test_case "builder labels" `Quick test_builder_labels;
    Alcotest.test_case "builder undefined label" `Quick
      test_builder_undefined_label;
    Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "decode rejects garbage" `Quick
      test_decode_rejects_garbage;
    Alcotest.test_case "image rejects bad magic" `Quick
      test_image_rejects_bad_magic;
    Alcotest.test_case "plt lookup" `Quick test_plt_lookup;
    Alcotest.test_case "successors" `Quick test_successors;
    Alcotest.test_case "uses/defs" `Quick test_uses_defs;
    Alcotest.test_case "cost sanity" `Quick test_cost_sanity;
  ]
  @ props
