(* Tests for the analyser's symbolic polynomial algebra and for the
   structural pieces of the static analysis (dominators, loop forest)
   on hand-built CFGs. *)

open Janus_vx
open Janus_analysis
open Janus_analysis.Sympoly

(* ------------------------------------------------------------------ *)
(* Polynomial algebra                                                  *)
(* ------------------------------------------------------------------ *)

let a1 = fresh_atom (Entry (Rloc Reg.RAX))
let a2 = fresh_atom (Entry (Rloc Reg.RBX))

let gen_poly =
  let open QCheck2.Gen in
  let* c = map Int64.of_int (int_range (-100) 100) in
  let* k1 = map Int64.of_int (int_range (-10) 10) in
  let* k2 = map Int64.of_int (int_range (-10) 10) in
  return (add (const c) (add (scale k1 (of_atom a1)) (scale k2 (of_atom a2))))

let prop_add_commutative =
  QCheck2.Test.make ~count:300 ~name:"polynomial addition commutes"
    QCheck2.Gen.(tup2 gen_poly gen_poly)
    (fun (p, q) -> equal (add p q) (add q p))

let prop_add_associative =
  QCheck2.Test.make ~count:300 ~name:"polynomial addition associates"
    QCheck2.Gen.(tup3 gen_poly gen_poly gen_poly)
    (fun (p, q, r) -> equal (add p (add q r)) (add (add p q) r))

let prop_sub_self_is_zero =
  QCheck2.Test.make ~count:300 ~name:"p - p = 0" gen_poly (fun p ->
      equal (sub p p) zero)

let prop_scale_distributes =
  QCheck2.Test.make ~count:300 ~name:"k(p+q) = kp + kq"
    QCheck2.Gen.(tup3 (map Int64.of_int (int_range (-20) 20)) gen_poly gen_poly)
    (fun (k, p, q) -> equal (scale k (add p q)) (add (scale k p) (scale k q)))

let prop_mul_const_is_scale =
  QCheck2.Test.make ~count:300 ~name:"const * p = scale"
    QCheck2.Gen.(tup2 (map Int64.of_int (int_range (-20) 20)) gen_poly)
    (fun (k, p) -> equal (mul (const k) p) (scale k p))

let test_nonaffine_mul_is_opaque () =
  let p = of_atom a1 and q = of_atom a2 in
  let r = mul p q in
  (* the product of two non-constant polynomials collapses to a fresh
     opaque atom: not equal to any affine combination *)
  Alcotest.(check bool) "opaque" false (equal r (mul p q));
  Alcotest.(check bool) "not constant" true (to_const r = None)

let test_coeff_extraction () =
  let p = add (const 5L) (scale 3L (of_atom a1)) in
  (match coeff_of p (fun a -> a.aid = a1.aid) with
   | Some (c, _) -> Alcotest.(check int64) "coefficient" 3L c
   | None -> Alcotest.fail "coefficient not found");
  let rest = without p (fun a -> a.aid = a1.aid) in
  Alcotest.(check (option int64)) "remainder" (Some 5L) (to_const rest)

let test_shl_as_scale () =
  (* the symbolic executor turns shl-by-constant into a scale; check
     the polynomial layer is consistent with that *)
  let p = of_atom a1 in
  Alcotest.(check bool) "p * 8 = p << 3" true
    (equal (scale 8L p) (mul p (const 8L)))

(* ------------------------------------------------------------------ *)
(* Dominators and loop forest on a handcrafted CFG                     *)
(* ------------------------------------------------------------------ *)

let reg r = Operand.Reg r
let imm i = Operand.Imm (Int64.of_int i)

(* nested loops:
     entry -> outer_head -> inner_head -> inner_body -> inner_head
                         -> after_inner -> outer_head
           -> exit *)
let nested_image () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm 0));
  Builder.label b "outer";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, imm 10));
  Builder.jcc b Cond.Ge "done";
  Builder.ins b (Insn.Mov (reg Reg.RDX, imm 0));
  Builder.label b "inner";
  Builder.ins b (Insn.Cmp (reg Reg.RDX, imm 5));
  Builder.jcc b Cond.Ge "after";
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RAX, reg Reg.RDX));
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RDX, imm 1));
  Builder.jmp b "inner";
  Builder.label b "after";
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "outer";
  Builder.label b "done";
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  (Builder.to_image b ~entry:"_start",
   Builder.label_addr b "outer",
   Builder.label_addr b "inner")

let test_nested_loop_forest () =
  let img, outer_addr, inner_addr = nested_image () in
  let cfg = Cfg.recover ~code:(Code.of_image img) img in
  let f = Option.get (Cfg.func cfg img.Image.entry) in
  let dom = Dom.compute f in
  let lt = Looptree.compute f dom in
  Alcotest.(check int) "two loops" 2 (List.length lt.Looptree.loops);
  let outer =
    List.find (fun (l : Looptree.loop) -> l.Looptree.header = outer_addr)
      lt.Looptree.loops
  in
  let inner =
    List.find (fun (l : Looptree.loop) -> l.Looptree.header = inner_addr)
      lt.Looptree.loops
  in
  Alcotest.(check (option int)) "inner nested in outer"
    (Some outer.Looptree.lid) inner.Looptree.parent;
  Alcotest.(check (list int)) "outer's children" [ inner.Looptree.lid ]
    outer.Looptree.children;
  Alcotest.(check bool) "inner is innermost" true (Looptree.is_innermost inner);
  Alcotest.(check bool) "inner body inside outer body" true
    (List.for_all
       (fun blk -> List.mem blk outer.Looptree.body)
       inner.Looptree.body);
  (* dominator sanity on the same CFG *)
  Alcotest.(check bool) "outer dominates inner" true
    (Dom.dominates dom outer_addr inner_addr);
  Alcotest.(check bool) "inner does not dominate outer" false
    (Dom.dominates dom inner_addr outer_addr)

let test_loop_exits_and_preheader () =
  let img, outer_addr, inner_addr = nested_image () in
  let cfg = Cfg.recover ~code:(Code.of_image img) img in
  let f = Option.get (Cfg.func cfg img.Image.entry) in
  let dom = Dom.compute f in
  let lt = Looptree.compute f dom in
  let inner =
    List.find (fun (l : Looptree.loop) -> l.Looptree.header = inner_addr)
      lt.Looptree.loops
  in
  Alcotest.(check int) "inner has one exit edge" 1
    (List.length inner.Looptree.exits);
  Alcotest.(check bool) "inner has a preheader" true
    (inner.Looptree.preheader <> None);
  let outer =
    List.find (fun (l : Looptree.loop) -> l.Looptree.header = outer_addr)
      lt.Looptree.loops
  in
  Alcotest.(check bool) "outer preheader is the entry block" true
    (outer.Looptree.preheader = Some img.Image.entry)

(* irreducible-ish / multi-exit shapes must not crash recovery *)
let test_break_loop_recovery () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm 0));
  Builder.label b "head";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, imm 100));
  Builder.jcc b Cond.Ge "out";
  Builder.ins b (Insn.Cmp (reg Reg.RAX, imm 5));
  Builder.jcc b Cond.Eq "out";  (* second exit: a break *)
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "head";
  Builder.label b "out";
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  let img = Builder.to_image b ~entry:"_start" in
  let cfg = Cfg.recover ~code:(Code.of_image img) img in
  let f = Option.get (Cfg.func cfg img.Image.entry) in
  let dom = Dom.compute f in
  let lt = Looptree.compute f dom in
  Alcotest.(check int) "one loop" 1 (List.length lt.Looptree.loops);
  let l = List.hd lt.Looptree.loops in
  Alcotest.(check int) "two exit edges" 2 (List.length l.Looptree.exits)

let tests =
  [
    Alcotest.test_case "non-affine product is opaque" `Quick
      test_nonaffine_mul_is_opaque;
    Alcotest.test_case "coefficient extraction" `Quick test_coeff_extraction;
    Alcotest.test_case "shl as scale" `Quick test_shl_as_scale;
    Alcotest.test_case "nested loop forest" `Quick test_nested_loop_forest;
    Alcotest.test_case "loop exits and preheader" `Quick
      test_loop_exits_and_preheader;
    Alcotest.test_case "break loop recovery" `Quick test_break_loop_recovery;
    QCheck_alcotest.to_alcotest prop_add_commutative;
    QCheck_alcotest.to_alcotest prop_add_associative;
    QCheck_alcotest.to_alcotest prop_sub_self_is_zero;
    QCheck_alcotest.to_alcotest prop_scale_distributes;
    QCheck_alcotest.to_alcotest prop_mul_const_is_scale;
  ]
