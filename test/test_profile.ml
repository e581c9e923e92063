(* Unit tests for the statically-driven profiler: coverage counters
   (invocations, iterations, attributed work, external-call footprints)
   and the dependence profile's shadow-map semantics, on guests whose
   ground truth is known by construction. *)

open Janus_jcc
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Looptree = Janus_analysis.Looptree
module Profiler = Janus_profile.Profiler

let compile src = Jcc.compile src

let profile src =
  let img = compile src in
  let t = Analysis.analyse_image img in
  let cov, _ = Profiler.run img t in
  (img, t, cov)

(* the report of the innermost loop matching [pred] *)
let find_loop (t : Analysis.t) pred =
  List.find_opt (fun (r : Loopanal.report) -> pred r) t.Analysis.reports

let lid (r : Loopanal.report) = r.Loopanal.loop.Looptree.lid

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

(* one loop with a known trip count, invoked a known number of times *)
let test_invocations_and_trip () =
  let src =
    "double a[64];\n\
     int main() {\n\
     \  for (int t = 0; t < 10; t++) {\n\
     \    for (int i = 0; i < 64; i++) { a[i] = a[i] + 1.0; }\n\
     \  }\n\
     \  print_float(a[0]);\n\
     \  return 0;\n\
     }"
  in
  let _, t, cov = profile src in
  (* the inner DOALL loop *)
  let inner =
    Option.get
      (find_loop t (fun r ->
           r.Loopanal.cls = Loopanal.Static_doall
           || match r.Loopanal.cls with
              | Loopanal.Ambiguous _ -> true
              | _ -> false))
  in
  let c = Profiler.cov_of cov (lid inner) in
  Alcotest.(check int) "10 invocations" 10 c.Profiler.invocations;
  (* unrolling may halve the header count; trips per invocation must
     land between 32 (unrolled x2) and 64 *)
  let trip = Profiler.avg_trip cov (lid inner) in
  Alcotest.(check bool)
    (Printf.sprintf "trip %.1f in [32, 64]" trip)
    true
    (trip >= 32.0 && trip <= 64.0)

let test_fraction_orders_loops () =
  (* the hot loop must dominate coverage; the cold one must not *)
  let src =
    "double a[4096]; double b[16];\n\
     int main() {\n\
     \  for (int i = 0; i < 4096; i++) { a[i] = a[i] * 2.0 + 1.0; }\n\
     \  for (int i = 0; i < 16; i++) { b[i] = b[i] + 1.0; }\n\
     \  print_float(a[1] + b[1]);\n\
     \  return 0;\n\
     }"
  in
  let _, t, cov = profile src in
  let loops =
    List.filter
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Incompatible _ | Loopanal.Outer -> false
         | _ -> true)
      t.Analysis.reports
  in
  let fracs =
    List.map (fun r -> Profiler.fraction cov (lid r)) loops
    |> List.sort (fun a b -> compare b a)
  in
  (match fracs with
   | hot :: cold :: _ ->
     Alcotest.(check bool)
       (Printf.sprintf "hot %.3f > 10x cold %.3f" hot cold)
       true
       (hot > 0.5 && hot > cold *. 10.0)
   | _ -> Alcotest.fail "expected two profiled loops");
  (* fractions are sane *)
  List.iter
    (fun f ->
       Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0))
    fracs

let test_unknown_loop_zero () =
  let src =
    "int main() { print_int(42); return 0; }"
  in
  let _, _, cov = profile src in
  Alcotest.(check (float 0.0)) "no such loop" 0.0
    (Profiler.fraction cov 12345);
  Alcotest.(check (float 0.0)) "no trip" 0.0 (Profiler.avg_trip cov 12345);
  let c = Profiler.cov_of cov 12345 in
  Alcotest.(check int) "zeros" 0 c.Profiler.invocations

let test_avg_work_scales_with_body () =
  (* same trip counts, 8x body work: avg_work must clearly separate *)
  let src n_extra =
    Printf.sprintf
      "double a[512];\n\
       int main() {\n\
       \  for (int i = 0; i < 512; i++) {\n\
       \    double x = a[i];\n\
       %s\
       \    a[i] = x;\n\
       \  }\n\
       \  print_float(a[7]);\n\
       \  return 0;\n\
       }"
      (String.concat ""
         (List.init n_extra (fun _ -> "    x = x * 1.0001 + 0.5;\n")))
  in
  let work n =
    let _, t, cov = profile (src n) in
    (* the hot loop = highest coverage (vector/remainder splitting can
       reorder reports) *)
    let hot =
      List.fold_left
        (fun acc (r : Loopanal.report) ->
           let f = Profiler.fraction cov (lid r) in
           match acc with
           | Some (_, best) when best >= f -> acc
           | _ -> Some (r, f))
        None t.Analysis.reports
    in
    let r, _ = Option.get hot in
    Profiler.avg_work cov (lid r)
  in
  let small = work 0 and big = work 16 in
  Alcotest.(check bool)
    (Printf.sprintf "work scales: %.0f vs %.0f" small big)
    true
    (big > small *. 2.0)

let test_excall_footprint_counted () =
  (* pow inside the loop: the EXCALL probes must count calls and a
     non-trivial per-call footprint with zero writes (the §III-B
     measurement) *)
  let src =
    "extern double pow(double, double);\n\
     double a[256];\n\
     int main() {\n\
     \  for (int i = 0; i < 256; i++) { a[i] = pow(1.01, 8.0) + (double)i; }\n\
     \  print_float(a[3]);\n\
     \  return 0;\n\
     }"
  in
  let _, t, cov = profile src in
  let r =
    Option.get
      (find_loop t (fun r -> r.Loopanal.excall_sites <> []))
  in
  let c = Profiler.cov_of cov (lid r) in
  Alcotest.(check bool) "every iteration calls"
    true (c.Profiler.ex_calls >= 128);
  let per_call =
    float_of_int c.Profiler.ex_insns /. float_of_int c.Profiler.ex_calls
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f insns per call" per_call)
    true
    (per_call > 20.0 && per_call < 200.0);
  Alcotest.(check int) "library code writes nothing" 0 c.Profiler.ex_writes;
  Alcotest.(check bool) "reads its tables" true (c.Profiler.ex_reads > 0)

(* ------------------------------------------------------------------ *)
(* Dependence profile                                                  *)
(* ------------------------------------------------------------------ *)

let run_deps ?(input = []) src =
  let img = compile src in
  let t = Analysis.analyse_image img in
  (t, snd (Profiler.run ~input img t))

(* statically invisible aliasing: the write offset comes from input, so
   neither the guest compiler nor the binary analyser can disprove
   overlap (a constant-distance recurrence would be *proved* dependent
   statically and never reach the profiler) *)
let test_dep_found_on_overlap () =
  let src =
    "int main() {\n\
     \  double *p = alloc_double(4096);\n\
     \  int off = read_int();\n\
     \  for (int i = 0; i < 1984; i++) { p[i+off] = p[i] * 0.5 + 1.0; }\n\
     \  print_float(p[99]);\n\
     \  return 0;\n\
     }"
  in
  (* off = 64 at runtime: iteration i's write lands on iteration
     (i+64)'s read *)
  let t, deps = run_deps ~input:[ 64L ] src in
  let amb =
    List.filter
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with Loopanal.Ambiguous _ -> true | _ -> false)
      t.Analysis.reports
  in
  Alcotest.(check bool) "an ambiguous loop exists" true (amb <> []);
  Alcotest.(check bool) "cross-iteration dependence flagged" true
    (List.exists (fun r -> Profiler.has_dep deps (lid r)) amb)

let test_no_dep_on_disjoint () =
  let src =
    "int main() {\n\
     \  double *p = alloc_double(2048);\n\
     \  double *q = alloc_double(2048);\n\
     \  for (int i = 0; i < 2048; i++) { q[i] = p[i] * 0.5 + 1.0; }\n\
     \  print_float(q[99]);\n\
     \  return 0;\n\
     }"
  in
  let t, deps = run_deps src in
  let amb =
    List.filter
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with Loopanal.Ambiguous _ -> true | _ -> false)
      t.Analysis.reports
  in
  List.iter
    (fun r ->
       if Profiler.was_observed deps (lid r) then
         Alcotest.(check bool) "disjoint arrays: no dependence" false
           (Profiler.has_dep deps (lid r)))
    amb

let test_same_iteration_reuse_not_dep () =
  (* reading and writing the same word within ONE iteration is not a
     cross-iteration dependence *)
  let src =
    "int main() {\n\
     \  double *p = alloc_double(1024);\n\
     \  for (int i = 0; i < 1024; i++) { p[i] = p[i] * 2.0 + 1.0; }\n\
     \  print_float(p[5]);\n\
     \  return 0;\n\
     }"
  in
  let t, deps = run_deps src in
  List.iter
    (fun (r : Loopanal.report) ->
       match r.Loopanal.cls with
       | Loopanal.Ambiguous _ when Profiler.was_observed deps (lid r) ->
         Alcotest.(check bool) "in-place update is iteration-local" false
           (Profiler.has_dep deps (lid r))
       | _ -> ())
    t.Analysis.reports

let test_observed_tracks_execution () =
  (* a loop behind a false condition is instrumented but never runs *)
  let src =
    "int main() {\n\
     \  double *p = alloc_double(1024);\n\
     \  int off = read_int();\n\
     \  if (off == 1) {\n\
     \    for (int i = 0; i < 448; i++) { p[i+off] = p[i] + 1.0; }\n\
     \  }\n\
     \  for (int i = 0; i < 512; i++) { p[i] = 2.0; }\n\
     \  print_float(p[0]);\n\
     \  return 0;\n\
     }"
  in
  (* empty input: read_int returns 0, the aliasing loop never runs *)
  let t, deps = run_deps src in
  let unobserved =
    List.filter
      (fun (r : Loopanal.report) ->
         (match r.Loopanal.cls with
          | Loopanal.Ambiguous _ -> true
          | _ -> false)
         && not (Profiler.was_observed deps (lid r)))
      t.Analysis.reports
  in
  Alcotest.(check bool) "the dead loop is unobserved" true (unobserved <> []);
  List.iter
    (fun r ->
       Alcotest.(check bool) "unobserved implies no dep" false
         (Profiler.has_dep deps (lid r)))
    unobserved

(* the offline workflow (collect into a profile store, read its
   evidence back, select) must make the same decisions as the in-process
   pipeline *)
let test_offline_selection_matches () =
  let src =
    "double x[8192]; double y[16];\n\
     int main() {\n\
     \  for (int t = 0; t < 4; t++) {\n\
     \    for (int i = 0; i < 8192; i++) { x[i] = x[i] * 1.01 + 0.5; }\n\
     \    for (int i = 0; i < 16; i++) { y[i] = y[i] + 1.0; }\n\
     \  }\n\
     \  print_float(x[0] + y[0]);\n\
     \  return 0;\n\
     }"
  in
  let img = compile src in
  let t = Analysis.analyse_image img in
  let cov, deps = Profiler.run img t in
  let e =
    Test_pipeline.with_temp_dir @@ fun dir ->
    let store = Janus_pgo.Pgo.Store.open_ dir in
    ignore (Janus_pgo.Pgo.collect ~store ~input:[] img);
    Option.get
      (Janus_pgo.Pgo.Store.evidence_for store
         ~image:(Janus_core.Pipeline.image_key img))
  in
  let cfg = Janus_core.Janus.config () in
  let sel ~coverage ~deps =
    let s = Janus_core.Janus.select ~cfg t ~coverage ~deps in
    List.map (fun (r, _) -> lid r) s.Janus_core.Janus.chosen
  in
  Alcotest.(check (list int)) "same loops chosen"
    (sel ~coverage:(Some cov) ~deps:(Some deps))
    (sel ~coverage:e.Janus_core.Pipeline.ev_coverage
       ~deps:e.Janus_core.Pipeline.ev_deps);
  (* and the profile filters do reject the cold 16-element loop *)
  let chosen = sel ~coverage:(Some cov) ~deps:(Some deps) in
  let all = sel ~coverage:None ~deps:(Some deps) in
  Alcotest.(check bool) "profile filtered something" true
    (List.length chosen < List.length all)

(* coverage totals must account for all retired instructions *)
let test_total_insns_positive () =
  let _, _, cov =
    profile
      "int main() { int s = 0; for (int i = 0; i < 100; i++) { s += i; }\n\
       print_int(s); return 0; }"
  in
  Alcotest.(check bool) "total > 0" true (cov.Profiler.total_insns > 0)

let tests =
  [
    Alcotest.test_case "invocations and trip" `Quick test_invocations_and_trip;
    Alcotest.test_case "fraction orders loops" `Quick
      test_fraction_orders_loops;
    Alcotest.test_case "unknown loop reads zero" `Quick test_unknown_loop_zero;
    Alcotest.test_case "avg_work scales with body" `Quick
      test_avg_work_scales_with_body;
    Alcotest.test_case "excall footprint" `Quick test_excall_footprint_counted;
    Alcotest.test_case "dependence found on overlap" `Quick
      test_dep_found_on_overlap;
    Alcotest.test_case "no dependence on disjoint" `Quick
      test_no_dep_on_disjoint;
    Alcotest.test_case "in-place update not a dep" `Quick
      test_same_iteration_reuse_not_dep;
    Alcotest.test_case "observed tracks execution" `Quick
      test_observed_tracks_execution;
    Alcotest.test_case "offline selection matches" `Quick
      test_offline_selection_matches;
    Alcotest.test_case "total insns positive" `Quick test_total_insns_positive;
  ]
