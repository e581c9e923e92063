(* Static-analysis tests on binaries produced by the guest compiler:
   CFG recovery, dominators, loop detection, classification. *)

open Janus_jcc
open Janus_analysis

let compile ?(options = Jcc.default_options) src = Jcc.compile ~options src

let analyse ?options src = Analysis.analyse_image (compile ?options src)

(* reports for loops inside a given function are hard to name; instead
   count classifications across the whole program *)
let count cls_name t =
  List.length
    (List.filter
       (fun (r : Loopanal.report) ->
          String.equal (Loopanal.classification_name r.Loopanal.cls) cls_name)
       t.Analysis.reports)

let doall_src =
  "int a[100]; int b[100];\n\
   int main() {\n\
   \  for (int i = 0; i < 100; i++) { a[i] = b[i] * 3 + 1; }\n\
   \  print_int(a[5]);\n\
   \  return 0;\n\
   }"

let test_cfg_recovery () =
  let img = compile doall_src in
  let cfg = Cfg.recover img in
  let funcs = Cfg.all_funcs cfg in
  (* _start and main at least *)
  Alcotest.(check bool) "at least two functions" true (List.length funcs >= 2);
  List.iter
    (fun f ->
       Alcotest.(check bool) "regular function" false f.Cfg.irregular;
       (* every block's successors exist *)
       List.iter
         (fun b ->
            List.iter
              (fun s ->
                 Alcotest.(check bool) "succ exists" true
                   (Hashtbl.mem f.Cfg.block_at s))
              b.Cfg.succs)
         f.Cfg.blocks)
    funcs

let test_dominators () =
  let img = compile doall_src in
  let cfg = Cfg.recover img in
  List.iter
    (fun f ->
       let dom = Dom.compute f in
       (* the entry dominates every block *)
       List.iter
         (fun b ->
            Alcotest.(check bool) "entry dominates" true
              (Dom.dominates dom f.Cfg.fentry b.Cfg.baddr))
         f.Cfg.blocks)
    (Cfg.all_funcs cfg)

let test_loop_detection () =
  let t = analyse doall_src in
  Alcotest.(check bool) "found loops" true (List.length t.Analysis.reports >= 1)

let test_static_doall () =
  let t = analyse doall_src in
  Alcotest.(check bool)
    (Fmt.str "static doall found: %a" Analysis.pp_summary t)
    true
    (count "static-doall" t >= 1);
  (* and the IV must be recognised with step 1 *)
  let doall =
    List.find
      (fun (r : Loopanal.report) -> r.Loopanal.cls = Loopanal.Static_doall)
      t.Analysis.reports
  in
  match doall.Loopanal.iv with
  | Some iv ->
    (* at O3 the vectorised main loop (step 2) is found first *)
    Alcotest.(check bool) "positive step" true
      (Int64.compare iv.Loopanal.iv_step 0L > 0)
  | None -> Alcotest.fail "no IV"

let test_static_doall_o0 () =
  (* at O0 the IV lives on the stack: the analyser must still find it *)
  let t = analyse ~options:{ Jcc.default_options with opt = 0 } doall_src in
  Alcotest.(check bool)
    (Fmt.str "O0 static doall: %a" Analysis.pp_summary t)
    true
    (count "static-doall" t >= 1)

let test_recurrence_is_dep () =
  let t =
    analyse
      "int a[100];\n\
       int main() {\n\
       \  a[0] = 1;\n\
       \  for (int i = 1; i < 100; i++) { a[i] = a[i-1] + 2; }\n\
       \  print_int(a[99]);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check bool)
    (Fmt.str "recurrence classified dep: %a" Analysis.pp_summary t)
    true
    (count "static-dep" t >= 1)

let test_scalar_carried_is_dep () =
  let t =
    analyse
      "int a[100];\n\
       int main() {\n\
       \  int prev = 0;\n\
       \  for (int i = 0; i < 100; i++) { a[i] = prev; prev = a[i] + i; }\n\
       \  print_int(a[99]);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check bool)
    (Fmt.str "carried scalar: %a" Analysis.pp_summary t)
    true
    (count "static-dep" t >= 1)

(* regression: a carried FP chain that lives entirely in a register —
   never stored, never compared — is still a cross-iteration dependence
   (a *0.5 smoothing chain numerically masks the misclassification
   under chunked scheduling, so this must be caught statically) *)
let test_register_only_fp_carried_is_dep () =
  let t =
    analyse
      "int main() {\n\
       \  double *p = alloc_double(300);\n\
       \  double *q = alloc_double(300);\n\
       \  for (int i = 0; i < 300; i++) { p[i] = (double)(i % 13) * 0.3; }\n\
       \  double acc = 0.0;\n\
       \  for (int i = 0; i < 300; i++) {\n\
       \    q[i] = p[i] * 2.0 + 1.0;\n\
       \    acc = acc * 0.5 + q[i];\n\
       \  }\n\
       \  print_float(acc + q[0] + q[299]);\n\
       \  return 0;\n\
       }"
  in
  (* the q/acc loop (and its multiversioned copies) must be
     static-dep, never ambiguous-with-checks *)
  let is_infix ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  let deps =
    List.filter
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Static_dep reason ->
           (* the reason must name the FP carried chain *)
           is_infix ~affix:"FP" reason
         | _ -> false)
      t.Analysis.reports
  in
  Alcotest.(check bool)
    (Fmt.str "register-only FP chain: %a" Analysis.pp_summary t)
    true
    (List.length deps >= 1
     && count "ambiguous" t <= 1 (* only the p-fill loop may need checks *))

let test_pointer_loop_ambiguous () =
  let t =
    analyse
      "void kernel(double *p, double *q, int n) {\n\
       \  for (int i = 0; i < n; i++) { p[i] = q[i] * 2.0; }\n\
       }\n\
       int main() {\n\
       \  double *a = alloc_double(40);\n\
       \  double *b = alloc_double(40);\n\
       \  kernel(a, b, 40);\n\
       \  print_float(a[7]);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check bool)
    (Fmt.str "pointer loop ambiguous: %a" Analysis.pp_summary t)
    true
    (count "ambiguous" t >= 1);
  (* the ambiguous loop must carry a runtime bounds check *)
  let amb =
    List.find
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with Loopanal.Ambiguous _ -> true | _ -> false)
      t.Analysis.reports
  in
  Alcotest.(check bool) "has check ranges" true
    (List.length amb.Loopanal.check_ranges >= 2);
  Alcotest.(check bool) "one range is written" true
    (List.exists (fun c -> c.Loopanal.ck_written) amb.Loopanal.check_ranges)

let test_io_loop_incompatible () =
  let t =
    analyse
      "int main() {\n\
       \  for (int i = 0; i < 10; i++) { print_int(i); }\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check bool)
    (Fmt.str "io loop incompatible: %a" Analysis.pp_summary t)
    true
    (count "incompatible" t >= 1)

let test_pointer_chase_incompatible () =
  let t =
    analyse
      "int next[64];\n\
       int main() {\n\
       \  for (int i = 0; i < 64; i++) { next[i] = (i + 7) % 64; }\n\
       \  int v = 0;\n\
       \  int steps = 0;\n\
       \  while (steps < 100) { v = next[v]; steps++; }\n\
       \  print_int(v);\n\
       \  return 0;\n\
       }"
  in
  (* the while loop has an IV (steps) but v = next[v] is a carried dep *)
  Alcotest.(check bool)
    (Fmt.str "chase loop: %a" Analysis.pp_summary t)
    true
    (count "static-dep" t >= 1)

let test_excall_ambiguous () =
  let t =
    analyse
      "extern double pow(double, double);\n\
       double a[50]; double b[50];\n\
       int main() {\n\
       \  for (int i = 0; i < 50; i++) { b[i] = (double)i; }\n\
       \  for (int i = 0; i < 50; i++) { a[i] = pow(b[i], 2.0); }\n\
       \  print_float(a[3]);\n\
       \  return 0;\n\
       }"
  in
  let with_excall =
    List.filter
      (fun (r : Loopanal.report) -> r.Loopanal.excall_sites <> [])
      t.Analysis.reports
  in
  Alcotest.(check bool)
    (Fmt.str "excall loop found: %a" Analysis.pp_summary t)
    true
    (List.length with_excall >= 1);
  List.iter
    (fun (r : Loopanal.report) ->
       match r.Loopanal.cls with
       | Loopanal.Ambiguous _ -> ()
       | c ->
         Alcotest.failf "excall loop should be ambiguous, got %s"
           (Loopanal.classification_name c))
    with_excall

let test_reduction_detected () =
  let t =
    analyse
      "double w[100];\n\
       int main() {\n\
       \  for (int i = 0; i < 100; i++) { w[i] = (double)i; }\n\
       \  double s = 0.0;\n\
       \  for (int i = 0; i < 100; i++) { s += w[i]; }\n\
       \  print_float(s);\n\
       \  return 0;\n\
       }"
  in
  let with_red =
    List.filter
      (fun (r : Loopanal.report) -> r.Loopanal.reductions <> [])
      t.Analysis.reports
  in
  Alcotest.(check bool)
    (Fmt.str "reduction loop found: %a" Analysis.pp_summary t)
    true
    (List.length with_red >= 1);
  (* the reduction loop must still be a static doall *)
  Alcotest.(check bool) "reduction loop is doall" true
    (List.exists
       (fun (r : Loopanal.report) -> r.Loopanal.cls = Loopanal.Static_doall)
       with_red)

let test_optimised_binaries_analysable () =
  (* O3 with unrolling and vectorisation must still yield a DOALL loop *)
  List.iter
    (fun (name, options) ->
       let t = analyse ~options doall_src in
       Alcotest.(check bool)
         (Fmt.str "%s: %a" name Analysis.pp_summary t)
         true
         (count "static-doall" t >= 1))
    [
      ("gcc O3", Jcc.default_options);
      ("icc O3", { Jcc.default_options with vendor = Jcc.Icc });
      ("gcc O2", { Jcc.default_options with opt = 2 });
    ]

let test_nested_loops_outer () =
  let t =
    analyse
      "int m[400];\n\
       int main() {\n\
       \  for (int i = 0; i < 20; i++) {\n\
       \    for (int j = 0; j < 20; j++) { m[i * 20 + j] = i + j; }\n\
       \  }\n\
       \  print_int(m[399]);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check bool)
    (Fmt.str "outer + inner: %a" Analysis.pp_summary t)
    true
    (count "outer" t >= 1 && count "static-doall" t >= 1)

let test_schedule_generation () =
  let img = compile doall_src in
  let t = Analysis.analyse_image img in
  let cov = Rulegen.profiling_schedule t.Analysis.cfg t.Analysis.reports in
  Alcotest.(check bool) "profiling schedule has rules" true
    (List.length cov.Janus_schedule.Schedule.rules > 0);
  (* serialisation round-trip *)
  let cov' =
    Janus_schedule.Schedule.of_bytes (Janus_schedule.Schedule.to_bytes cov)
  in
  Alcotest.(check int) "rules preserved"
    (List.length cov.Janus_schedule.Schedule.rules)
    (List.length cov'.Janus_schedule.Schedule.rules);
  (* parallel schedule for the doall loops *)
  let selected =
    List.filter_map
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Static_doall -> Some (r, Janus_schedule.Desc.Chunked)
         | _ -> None)
      t.Analysis.reports
  in
  let sched, ok = Rulegen.parallel_schedule t.Analysis.cfg selected in
  Alcotest.(check bool) "some loops encoded" true (List.length ok >= 1);
  let rules = sched.Janus_schedule.Schedule.rules in
  let has id =
    List.exists (fun r -> r.Janus_schedule.Rule.id = id) rules
  in
  Alcotest.(check bool) "LOOP_INIT" true (has Janus_schedule.Rule.LOOP_INIT);
  Alcotest.(check bool) "LOOP_FINISH" true (has Janus_schedule.Rule.LOOP_FINISH);
  Alcotest.(check bool) "LOOP_UPDATE_BOUND" true
    (has Janus_schedule.Rule.LOOP_UPDATE_BOUND);
  Alcotest.(check bool) "THREAD_SCHEDULE" true
    (has Janus_schedule.Rule.THREAD_SCHEDULE);
  (* round-trip with descriptors *)
  let sched' =
    Janus_schedule.Schedule.of_bytes (Janus_schedule.Schedule.to_bytes sched)
  in
  let init_rule =
    List.find
      (fun r -> r.Janus_schedule.Rule.id = Janus_schedule.Rule.LOOP_INIT)
      sched'.Janus_schedule.Schedule.rules
  in
  let desc =
    Janus_schedule.Schedule.loop_desc sched' init_rule.Janus_schedule.Rule.data
  in
  Alcotest.(check bool) "desc step positive" true
    (Int64.compare desc.Janus_schedule.Desc.iv_step 0L > 0)

(* ------------------------------------------------------------------ *)
(* Trip-count and induction-variable edge cases                        *)
(* ------------------------------------------------------------------ *)

(* a loop whose bound is a parameter, invoked with n = 0: the static
   classification must be sound for the zero-trip invocation and the
   parallelised binary must produce native output *)
let test_zero_trip_loop () =
  let src =
    "double s[100];\n\
     void fill(int n) {\n\
     \  for (int i = 0; i < n; i++) { s[i] = (double)i * 1.5 + 1.0; }\n\
     }\n\
     int main() {\n\
     \  fill(0);\n\
     \  print_float(s[0] + s[99]);\n\
     \  fill(100);\n\
     \  print_float(s[0] + s[99]);\n\
     \  return 0;\n\
     }"
  in
  let t = analyse src in
  Alcotest.(check bool)
    (Fmt.str "fill loop classified: %a" Analysis.pp_summary t)
    true
    (List.length t.Analysis.reports >= 1);
  let img = compile src in
  let native = Janus_core.Janus.run_native img in
  let par = Janus_core.Janus.parallelise img in
  Alcotest.(check string) "zero-trip output identical" native.Janus_core.Janus.output
    par.Janus_core.Janus.output

(* a single-iteration loop (bound 1 through an opaque parameter) must
   survive parallelisation bit-identically — the chunker hands the one
   iteration to one worker and the rest get empty ranges *)
let test_single_iteration_loop () =
  let src =
    "double s[8];\n\
     void fill(int n) {\n\
     \  for (int i = 0; i < n; i++) { s[i] = (double)i + 42.0; }\n\
     }\n\
     int main() {\n\
     \  fill(1);\n\
     \  print_float(s[0]);\n\
     \  return 0;\n\
     }"
  in
  let t = analyse src in
  Alcotest.(check bool)
    (Fmt.str "single-trip loop classified: %a" Analysis.pp_summary t)
    true
    (List.length t.Analysis.reports >= 1);
  let img = compile src in
  let native = Janus_core.Janus.run_native img in
  let par = Janus_core.Janus.parallelise img in
  Alcotest.(check string) "single-iteration output identical"
    native.Janus_core.Janus.output par.Janus_core.Janus.output

(* the IV is bumped a second time under a data-dependent condition, so
   its per-iteration step is not constant: the loop must NOT be
   classified static-doall (iteration count and targets are no longer
   an affine function of the chunk index) *)
let test_conditional_double_iv_update () =
  let src =
    "int a[200];\n\
     int main() {\n\
     \  int i = 0;\n\
     \  int sum = 0;\n\
     \  while (i < 200) {\n\
     \    a[i] = i;\n\
     \    sum = sum + a[i];\n\
     \    i = i + 1;\n\
     \    if (sum % 7 == 0) { i = i + 1; }\n\
     \  }\n\
     \  print_int(sum);\n\
     \  return 0;\n\
     }"
  in
  let t = analyse src in
  Alcotest.(check bool)
    (Fmt.str "irregular-step loop not doall: %a" Analysis.pp_summary t)
    true
    (count "static-doall" t = 0);
  (* and parallelisation must still be output-preserving (the loop is
     simply not selected) *)
  let img = compile src in
  let native = Janus_core.Janus.run_native img in
  let par = Janus_core.Janus.parallelise img in
  Alcotest.(check string) "output identical" native.Janus_core.Janus.output
    par.Janus_core.Janus.output

(* an unconditional second bump is a well-defined step-2 loop: if the
   analyser proves it doall it must report the combined step, never the
   step of a single update *)
let test_unconditional_double_iv_update () =
  let src =
    "int a[200];\n\
     int main() {\n\
     \  for (int i = 0; i < 200; i = i + 1) { a[i] = i * 3; i = i + 1; }\n\
     \  int sum = 0;\n\
     \  for (int j = 0; j < 200; j++) { sum = sum + a[j]; }\n\
     \  print_int(sum);\n\
     \  return 0;\n\
     }"
  in
  let t = analyse src in
  List.iter
    (fun (r : Loopanal.report) ->
       match (r.Loopanal.cls, r.Loopanal.iv) with
       | Loopanal.Static_doall, Some iv ->
         Alcotest.(check bool)
           (Fmt.str "doall IV step is the net step (got %Ld)"
              iv.Loopanal.iv_step)
           true
           (Int64.compare iv.Loopanal.iv_step 0L <> 0)
       | _ -> ())
    t.Analysis.reports;
  let img = compile src in
  let native = Janus_core.Janus.run_native img in
  let par = Janus_core.Janus.parallelise img in
  Alcotest.(check string) "output identical" native.Janus_core.Janus.output
    par.Janus_core.Janus.output

(* ------------------------------------------------------------------ *)
(* Structural invariants of CFG recovery, dominators and loop forests  *)
(* over randomly generated programs at random optimisation levels      *)
(* ------------------------------------------------------------------ *)

(* a random structured program: loop nests, conditionals, breaks,
   while loops, function calls — exercising the recovery paths *)
let gen_program =
  let open QCheck2.Gen in
  let* n = int_range 16 200 in
  let* depth2 = bool in
  let* use_if = bool in
  let* use_break = bool in
  let* use_while = bool in
  let* use_call = bool in
  let inner_body =
    (if use_if then
       Printf.sprintf
         "      if (i %% 3 == 0) { a[i] = a[i] + 2.0; } else { a[i] = a[i] * 1.5; }\n"
     else "      a[i] = a[i] * 1.5 + 1.0;\n")
    ^ (if use_break then
         Printf.sprintf "      if (a[i] > 1000000.0) { break; }\n"
       else "")
  in
  let loop =
    if depth2 then
      Printf.sprintf
        "  for (int j = 0; j < 4; j++) {\n\
        \    for (int i = 0; i < %d; i++) {\n%s    }\n\
        \  }\n"
        n inner_body
    else
      Printf.sprintf "  for (int i = 0; i < %d; i++) {\n%s  }\n" n inner_body
  in
  let whiles =
    if use_while then
      "  int k = 0;\n  while (k < 10) { a[0] = a[0] + 0.5; k = k + 1; }\n"
    else ""
  in
  let helper, call =
    if use_call then
      ( "double bump(double x) { return x * 2.0 + 1.0; }\n",
        "  a[1] = bump(a[1]);\n" )
    else ("", "")
  in
  return
    (Printf.sprintf
       "double a[%d];\n%s\
        int main() {\n\
        \  for (int i = 0; i < %d; i++) { a[i] = (double)(i %% 7); }\n\
        %s%s%s\
        \  print_float(a[0] + a[%d]);\n\
        \  return 0;\n\
        }"
       n helper n loop whiles call (n - 1))

let gen_options =
  let open QCheck2.Gen in
  let* opt = int_range 0 3 in
  let* avx = bool in
  let* vendor = oneofl Jcc.[ Gcc; Icc ] in
  return { Jcc.default_options with opt; avx; vendor }

let structural_invariants (src, options) =
  let img = compile ~options src in
  let cfg = Cfg.recover img in
  List.for_all
    (fun (f : Cfg.func) ->
       let block_addrs =
         List.map (fun (b : Cfg.bblock) -> b.Cfg.baddr) f.Cfg.blocks
       in
       let in_func a = List.mem a block_addrs in
       (* entry is a block; every successor/predecessor exists *)
       in_func f.Cfg.fentry
       && List.for_all
            (fun (b : Cfg.bblock) ->
               List.for_all in_func b.Cfg.succs
               && List.for_all in_func b.Cfg.preds)
            f.Cfg.blocks
       &&
       let dom = Dom.compute f in
       (* reverse postorder covers each block exactly once *)
       let rpo = Array.to_list dom.Dom.order in
       List.length rpo = List.length (List.sort_uniq compare rpo)
       && List.for_all (fun a -> List.mem a block_addrs) rpo
       (* the entry dominates every reachable block *)
       && List.for_all
            (fun a -> Dom.dominates dom f.Cfg.fentry a)
            rpo
       &&
       let lt = Looptree.compute f dom in
       List.for_all
         (fun (l : Looptree.loop) ->
            (* header in body; latches in body with a header edge *)
            List.mem l.Looptree.header l.Looptree.body
            && List.for_all
                 (fun latch ->
                    List.mem latch l.Looptree.body
                    &&
                    match
                      List.find_opt
                        (fun (b : Cfg.bblock) -> b.Cfg.baddr = latch)
                        f.Cfg.blocks
                    with
                    | Some b -> List.mem l.Looptree.header b.Cfg.succs
                    | None -> false)
                 l.Looptree.latches
            (* the header dominates the whole body *)
            && List.for_all
                 (fun a -> Dom.dominates dom l.Looptree.header a)
                 l.Looptree.body
            (* a preheader is outside the body and reaches the header *)
            && (match l.Looptree.preheader with
                | None -> true
                | Some p ->
                  (not (List.mem p l.Looptree.body))
                  && (match
                        List.find_opt
                          (fun (b : Cfg.bblock) -> b.Cfg.baddr = p)
                          f.Cfg.blocks
                      with
                      | Some b -> List.mem l.Looptree.header b.Cfg.succs
                      | None -> false))
            (* children nest strictly inside the parent *)
            && List.for_all
                 (fun cid ->
                    match Looptree.loop lt cid with
                    | Some c ->
                      List.for_all
                        (fun a -> List.mem a l.Looptree.body)
                        c.Looptree.body
                    | None -> false)
                 l.Looptree.children
            (* exits leave the loop from inside it *)
            && List.for_all
                 (fun (src_blk, target) ->
                    List.mem src_blk l.Looptree.body
                    && not (List.mem target l.Looptree.body))
                 l.Looptree.exits)
         lt.Looptree.loops)
    (Cfg.all_funcs cfg)

let prop_structural_invariants =
  QCheck2.Test.make ~count:40 ~name:"CFG/dom/loop-forest invariants"
    ~print:(fun (src, _) -> src)
    QCheck2.Gen.(pair gen_program gen_options)
    structural_invariants

(* analysing any generated program never raises and yields a report per
   loop of the forest *)
let prop_analysis_total =
  QCheck2.Test.make ~count:25 ~name:"analysis is total over random programs"
    ~print:(fun (src, _) -> src)
    QCheck2.Gen.(pair gen_program gen_options)
    (fun (src, options) ->
       let t = analyse ~options src in
       List.for_all
         (fun (r : Loopanal.report) ->
            (* every report's loop is well-formed and classified *)
            String.length
              (Loopanal.classification_name r.Loopanal.cls)
            > 0
            && r.Loopanal.insn_count >= 0)
         t.Analysis.reports)

(* ------------------------------------------------------------------ *)
(* Statement-level dependence graphs and the fission plan               *)
(* ------------------------------------------------------------------ *)

(* the adv.fission loop body: a carried scalar chain (not a reduction —
   the multiply breaks associativity) interleaved with an independent
   streaming store *)
let fission_src =
  (Janus_suite.Suite.find_exn "adv.fission").Janus_suite.Suite.source

let test_depgraph_fission_plan () =
  let t = analyse fission_src in
  (* the mixed loop must be Static_dep with the carried chain named *)
  let is_infix ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Fmt.str "chain loop is static-dep: %a" Analysis.pp_summary t)
    true
    (List.exists
       (fun (r : Loopanal.report) ->
          match r.Loopanal.cls with
          | Loopanal.Static_dep reason -> is_infix ~affix:"carried scc @ 0x" reason
          | _ -> false)
       t.Analysis.reports);
  (* and at least one variant of it must yield a two-sided fission plan *)
  let plans =
    List.filter_map
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Static_dep _ -> Depgraph.plan r
         | _ -> None)
      t.Analysis.reports
  in
  Alcotest.(check bool) "some loop splits" true (List.length plans >= 1);
  List.iter
    (fun (p : Depgraph.plan) ->
       Alcotest.(check bool) "product non-empty" true (p.Depgraph.pl_product <> []);
       Alcotest.(check bool) "residue non-empty" true (p.Depgraph.pl_residue <> []))
    plans

(* demotion reasons are a pipeline artifact: analysing the same image
   twice must produce byte-identical classification reasons *)
let test_static_dep_reasons_stable () =
  let img = compile fission_src in
  let reasons t =
    List.filter_map
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Static_dep reason -> Some reason
         | _ -> None)
      t.Analysis.reports
  in
  let a = reasons (Analysis.analyse_image img) in
  let b = reasons (Analysis.analyse_image img) in
  Alcotest.(check (list string)) "reasons stable across analyses" a b

(* graph-level invariants over random programs: the SCC condensation is
   a topologically-numbered DAG, carried SCC flags match the edges, the
   groups partition the non-infrastructure nodes with no dependence
   edge between two groups, and any fission plan keeps the product free
   of carried edges *)
let depgraph_invariants (src, options) =
  let t = analyse ~options src in
  List.for_all
    (fun (r : Loopanal.report) ->
       match Depgraph.build r with
       | None -> true
       | Some g ->
         let n = Array.length g.Depgraph.dg_addrs in
         let scc = g.Depgraph.dg_scc_of in
         let in_range v = v >= 0 && v < n in
         List.for_all
           (fun (e : Depgraph.edge) ->
              in_range e.Depgraph.e_src && in_range e.Depgraph.e_dst
              (* condensation is a DAG in topological numbering *)
              && scc.(e.Depgraph.e_src) <= scc.(e.Depgraph.e_dst))
           g.Depgraph.dg_edges
         (* an SCC is flagged carried iff one of its internal edges is *)
         && (let flagged = Array.make g.Depgraph.dg_scc_count false in
             List.iter
               (fun (e : Depgraph.edge) ->
                  if
                    e.Depgraph.e_carried
                    && scc.(e.Depgraph.e_src) = scc.(e.Depgraph.e_dst)
                  then flagged.(scc.(e.Depgraph.e_src)) <- true)
               g.Depgraph.dg_edges;
             flagged = g.Depgraph.dg_carried_scc)
         (* groups partition the non-infra nodes, no edge between two *)
         && (let comps = Depgraph.components g in
             let members = List.concat_map fst comps in
             let non_infra =
               List.filter (fun v -> not g.Depgraph.dg_infra.(v))
                 (List.init n Fun.id)
             in
             List.sort_uniq compare members = List.sort compare members
             && List.sort compare members = List.sort compare non_infra
             && (let comp_of = Array.make n (-1) in
                 List.iteri
                   (fun ci (vs, _) ->
                      List.iter (fun v -> comp_of.(v) <- ci) vs)
                   comps;
                 List.for_all
                   (fun (e : Depgraph.edge) ->
                      comp_of.(e.Depgraph.e_src) < 0
                      || comp_of.(e.Depgraph.e_dst) < 0
                      || comp_of.(e.Depgraph.e_src)
                         = comp_of.(e.Depgraph.e_dst))
                   g.Depgraph.dg_edges)
             (* a carried-free group really has no carried edge inside *)
             && List.for_all
                  (fun (vs, free) ->
                     (not free)
                     || not
                          (List.exists
                             (fun (e : Depgraph.edge) ->
                                e.Depgraph.e_carried
                                && List.mem e.Depgraph.e_src vs
                                && List.mem e.Depgraph.e_dst vs)
                             g.Depgraph.dg_edges))
                  comps)
         (* any plan partitions the body and keeps groups disjoint *)
         && (match Depgraph.plan r with
             | None -> true
             | Some p ->
               let all = Array.to_list g.Depgraph.dg_addrs in
               let got =
                 p.Depgraph.pl_infra @ p.Depgraph.pl_product
                 @ p.Depgraph.pl_residue
               in
               List.sort compare got = List.sort compare all
               &&
               let side a =
                 (* index the address back to its node *)
                 let rec find i =
                   if i >= n then -1
                   else if g.Depgraph.dg_addrs.(i) = a then i
                   else find (i + 1)
                 in
                 find 0
               in
               let product = List.map side p.Depgraph.pl_product in
               let residue = List.map side p.Depgraph.pl_residue in
               List.for_all
                 (fun (e : Depgraph.edge) ->
                    not
                      ((List.mem e.Depgraph.e_src product
                        && List.mem e.Depgraph.e_dst residue)
                       || (List.mem e.Depgraph.e_src residue
                           && List.mem e.Depgraph.e_dst product)))
                 g.Depgraph.dg_edges
               && List.for_all
                    (fun (e : Depgraph.edge) ->
                       not
                         (e.Depgraph.e_carried
                          && List.mem e.Depgraph.e_src product
                          && List.mem e.Depgraph.e_dst product))
                    g.Depgraph.dg_edges))
    t.Analysis.reports

let prop_depgraph_invariants =
  QCheck2.Test.make ~count:25 ~name:"depgraph SCC/group/plan invariants"
    ~print:(fun (src, _) -> src)
    QCheck2.Gen.(pair gen_program gen_options)
    depgraph_invariants

let tests =
  [
    Alcotest.test_case "cfg recovery" `Quick test_cfg_recovery;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loop detection" `Quick test_loop_detection;
    Alcotest.test_case "static doall" `Quick test_static_doall;
    Alcotest.test_case "static doall at O0" `Quick test_static_doall_o0;
    Alcotest.test_case "recurrence is dep" `Quick test_recurrence_is_dep;
    Alcotest.test_case "carried scalar is dep" `Quick test_scalar_carried_is_dep;
    Alcotest.test_case "register-only FP carried is dep" `Quick
      test_register_only_fp_carried_is_dep;
    Alcotest.test_case "pointer loop ambiguous" `Quick test_pointer_loop_ambiguous;
    Alcotest.test_case "io loop incompatible" `Quick test_io_loop_incompatible;
    Alcotest.test_case "pointer chase" `Quick test_pointer_chase_incompatible;
    Alcotest.test_case "excall ambiguous" `Quick test_excall_ambiguous;
    Alcotest.test_case "reduction detected" `Quick test_reduction_detected;
    Alcotest.test_case "optimised binaries analysable" `Quick
      test_optimised_binaries_analysable;
    Alcotest.test_case "nested loops" `Quick test_nested_loops_outer;
    Alcotest.test_case "zero-trip loop" `Quick test_zero_trip_loop;
    Alcotest.test_case "single-iteration loop" `Quick
      test_single_iteration_loop;
    Alcotest.test_case "conditional double IV update" `Quick
      test_conditional_double_iv_update;
    Alcotest.test_case "unconditional double IV update" `Quick
      test_unconditional_double_iv_update;
    Alcotest.test_case "schedule generation" `Quick test_schedule_generation;
    Alcotest.test_case "depgraph fission plan" `Quick
      test_depgraph_fission_plan;
    Alcotest.test_case "static-dep reasons stable" `Quick
      test_static_dep_reasons_stable;
    QCheck_alcotest.to_alcotest prop_structural_invariants;
    QCheck_alcotest.to_alcotest prop_analysis_total;
    QCheck_alcotest.to_alcotest prop_depgraph_invariants;
  ]
