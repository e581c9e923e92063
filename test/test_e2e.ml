(* End-to-end tests: compile -> analyse -> profile -> parallelise ->
   run, checking outputs against native execution and speedups against
   the cost model. *)

open Janus_jcc
open Janus_core

let compile ?(options = Jcc.default_options) src = Jcc.compile ~options src

let janus_vs_native ?options ?cfg src =
  let img = compile ?options src in
  let native = Janus.run_native img in
  let par = Janus.parallelise ?cfg img in
  (native, par)

let check_same_output name (native : Janus.result) (par : Janus.result) =
  Alcotest.(check string) (name ^ ": output") native.Janus.output
    par.Janus.output;
  Alcotest.(check int) (name ^ ": exit") native.Janus.exit_code
    par.Janus.exit_code

(* a kernel big enough for parallelisation to pay off *)
let big_kernel =
  "double x[8192]; double y[8192]; double z[8192];\n\
   int main() {\n\
   \  for (int i = 0; i < 8192; i++) { x[i] = (double)(i % 97); y[i] = (double)(i % 31); }\n\
   \  for (int t = 0; t < 4; t++) {\n\
   \    for (int i = 0; i < 8192; i++) { z[i] = x[i] * 1.5 + y[i] * 2.5; }\n\
   \    for (int i = 0; i < 8192; i++) { x[i] = z[i] * 0.5; }\n\
   \  }\n\
   \  double s = 0.0;\n\
   \  for (int i = 0; i < 8192; i++) { s += x[i]; }\n\
   \  print_float(s);\n\
   \  return 0;\n\
   }"

let test_doall_speedup () =
  let native, par = janus_vs_native big_kernel in
  check_same_output "doall" native par;
  Alcotest.(check bool) "loops selected" true (par.Janus.selected_loops <> []);
  let s = Janus.speedup ~native ~run:par in
  Alcotest.(check bool) (Printf.sprintf "speedup %.2f > 2.5" s) true (s > 2.5)

let test_reduction_parallel () =
  let src =
    "double w[4096];\n\
     int main() {\n\
     \  for (int i = 0; i < 4096; i++) { w[i] = (double)(i % 13) * 0.5; }\n\
     \  double s = 0.0;\n\
     \  for (int i = 0; i < 4096; i++) { s += w[i] * w[i] + 1.0; }\n\
     \  print_float(s);\n\
     \  return 0;\n\
     }"
  in
  let native, par = janus_vs_native src in
  check_same_output "reduction" native par;
  Alcotest.(check bool) "parallelised" true (par.Janus.selected_loops <> [])

let test_int_reduction () =
  let src =
    "int v[4096];\n\
     int main() {\n\
     \  for (int i = 0; i < 4096; i++) { v[i] = i * 7 % 23; }\n\
     \  int s = 0;\n\
     \  for (int i = 0; i < 4096; i++) { s += v[i]; }\n\
     \  print_int(s);\n\
     \  return 0;\n\
     }"
  in
  let native, par = janus_vs_native src in
  check_same_output "int reduction" native par

let pointer_src aliasing =
  Printf.sprintf
    "void kernel(double *p, double *q, int n) {\n\
    \  for (int i = 0; i < n; i++) { p[i] = q[i] * 2.0 + 1.0; }\n\
     }\n\
     int main() {\n\
    \  double *a = alloc_double(3000);\n\
    \  double *b = %s;\n\
    \  for (int i = 0; i < 3000; i++) { a[i] = (double)i; }\n\
    \  for (int t = 0; t < 3; t++) { kernel(%s); }\n\
    \  double s = 0.0;\n\
    \  for (int i = 0; i < 3000; i++) { s += a[i]; }\n\
    \  print_float(s);\n\
    \  return 0;\n\
     }"
    (if aliasing then "a" else "alloc_double(3000)")
    (if aliasing then "a, b, 2999" else "b, a, 3000")

let test_bounds_check_pass () =
  (* disjoint arrays: the check passes and the loop runs in parallel *)
  let native, par = janus_vs_native (pointer_src false) in
  check_same_output "check pass" native par;
  Alcotest.(check bool) "has checks" true (par.Janus.checks_per_loop <> []);
  Alcotest.(check bool) "check cycles counted" true
    (par.Janus.breakdown.Janus.check_cycles > 0)

let test_bounds_check_fail_falls_back () =
  (* overlapping arrays: the check fails and execution stays serial,
     with output still correct *)
  let native, par = janus_vs_native (pointer_src true) in
  check_same_output "check fail" native par

let test_excall_stm () =
  let src =
    "extern double pow(double, double);\n\
     double a[2048]; double b[2048];\n\
     int main() {\n\
     \  for (int i = 0; i < 2048; i++) { b[i] = (double)(i % 7 + 1); }\n\
     \  for (int i = 0; i < 2048; i++) { a[i] = pow(b[i], 3.0) * 0.25; }\n\
     \  double s = 0.0;\n\
     \  for (int i = 0; i < 2048; i++) { s += a[i]; }\n\
     \  print_float(s);\n\
     \  return 0;\n\
     }"
  in
  let native, par = janus_vs_native src in
  check_same_output "excall" native par;
  (* the pow loop must have been parallelised under speculation *)
  Alcotest.(check bool) "stm commits happened" true (par.Janus.stm_commits > 0);
  Alcotest.(check int) "no aborts (pow only reads)" 0 par.Janus.stm_aborts;
  let s = Janus.speedup ~native ~run:par in
  Alcotest.(check bool) (Printf.sprintf "speedup %.2f > 1.5" s) true (s > 1.5)

let test_thread_scaling () =
  let img = compile big_kernel in
  let native = Janus.run_native img in
  let cycles_at t =
    let par = Janus.parallelise ~cfg:(Janus.config ~threads:t ()) img in
    Alcotest.(check string) "output" native.Janus.output par.Janus.output;
    par.Janus.cycles
  in
  let c1 = cycles_at 1 in
  let c4 = cycles_at 4 in
  let c8 = cycles_at 8 in
  Alcotest.(check bool) "4 threads faster than 1" true (c4 < c1);
  Alcotest.(check bool) "8 threads faster than 4" true (c8 < c4)

let test_static_vs_profile_configs () =
  (* a program with one hot loop and many cold tiny loops: static-only
     parallelises everything, profile-guided skips the cold ones *)
  let src =
    "double h[4096]; double g[4096];\n\
     double tiny1[4]; double tiny2[4];\n\
     int main() {\n\
     \  for (int r = 0; r < 60; r++) {\n\
     \    for (int i = 0; i < 4; i++) { tiny1[i] = (double)i; }\n\
     \    for (int i = 0; i < 4; i++) { tiny2[i] = tiny1[i] * 2.0; }\n\
     \  }\n\
     \  for (int i = 0; i < 4096; i++) { g[i] = (double)(i % 11); }\n\
     \  for (int i = 0; i < 4096; i++) { h[i] = g[i] * 3.0 + 1.0; }\n\
     \  print_float(h[4095] + tiny2[3]);\n\
     \  return 0;\n\
     }"
  in
  let img = compile src in
  let native = Janus.run_native img in
  let static_only =
    Janus.parallelise
      ~cfg:(Janus.config ~use_profile:false ~use_checks:false ())
      img
  in
  let with_profile =
    Janus.parallelise ~cfg:(Janus.config ~use_checks:false ()) img
  in
  check_same_output "static" native static_only;
  check_same_output "profile" native with_profile;
  Alcotest.(check bool) "profile selects fewer loops" true
    (List.length with_profile.Janus.selected_loops
     < List.length static_only.Janus.selected_loops);
  Alcotest.(check bool) "profile config is faster" true
    (with_profile.Janus.cycles <= static_only.Janus.cycles)

let test_o0_binary_end_to_end () =
  let native, par =
    janus_vs_native ~options:{ Jcc.default_options with opt = 0 } big_kernel
  in
  check_same_output "O0" native par;
  Alcotest.(check bool) "O0 loops selected" true
    (par.Janus.selected_loops <> [])

let test_all_opt_levels_correct () =
  List.iter
    (fun (name, options) ->
       let native, par = janus_vs_native ~options big_kernel in
       check_same_output name native par)
    [
      ("O1", { Jcc.default_options with opt = 1 });
      ("O2", { Jcc.default_options with opt = 2 });
      ("O3-gcc", Jcc.default_options);
      ("O3-icc", { Jcc.default_options with vendor = Jcc.Icc });
      ("O3-avx", { Jcc.default_options with avx = true });
    ]

let test_schedule_size_small () =
  let img = compile big_kernel in
  let par = Janus.parallelise img in
  let ratio =
    float_of_int par.Janus.schedule_size
    /. float_of_int par.Janus.executable_size
  in
  (* toy programs have few instructions per loop, so the ratio is far
     above Fig. 10's 3.7% average; suite-sized binaries are measured by
     janus_eval fig10 *)
  Alcotest.(check bool)
    (Printf.sprintf "schedule/executable = %.3f < 0.7" ratio)
    true (ratio < 0.7);
  Alcotest.(check bool) "schedule non-empty" true (par.Janus.schedule_size > 0)

let test_round_robin_policy () =
  let img = compile big_kernel in
  let native = Janus.run_native img in
  let rr =
    Janus.parallelise
      ~cfg:
        (Janus.config
           ~force_policy:(Janus_schedule.Desc.Round_robin 16)
           ())
      img
  in
  check_same_output "round robin" native rr;
  let s = Janus.speedup ~native ~run:rr in
  Alcotest.(check bool) (Printf.sprintf "rr speedup %.2f > 1.5" s) true (s > 1.5)

let test_doacross_extension () =
  (* the paper's future work: a static-dependence loop (carried
     accumulator feeding stores) parallelised by in-order chunk
     hand-off; the non-carried work overlaps *)
  let src =
    "double a[8192]; double b[8192];\n\
     int main() {\n\
     \  for (int i = 0; i < 8192; i++) { a[i] = (double)(i % 23) * 0.1; }\n\
     \  double acc = 0.0;\n\
     \  for (int t = 0; t < 4; t++) {\n\
     \    for (int i = 0; i < 8192; i++) {\n\
     \      acc = acc * 0.75 + a[i] * 0.25;\n\
     \      b[i] = acc * 2.0 + a[i] * a[i] + 1.0;\n\
     \    }\n\
     \  }\n\
     \  double s = 0.0;\n\
     \  for (int i = 0; i < 8192; i++) { s += b[i]; }\n\
     \  print_float(s);\n\
     \  return 0;\n\
     }"
  in
  let img = compile src in
  let native = Janus.run_native img in
  let without = Janus.parallelise img in
  let with_da =
    Janus.parallelise ~cfg:(Janus.config ~use_doacross:true ()) img
  in
  check_same_output "doacross" native with_da;
  Alcotest.(check bool) "more loops parallelised with doacross" true
    (List.length with_da.Janus.selected_loops
     > List.length without.Janus.selected_loops);
  let s_without = Janus.speedup ~native ~run:without in
  let s_with = Janus.speedup ~native ~run:with_da in
  Alcotest.(check bool)
    (Printf.sprintf "doacross helps (%.2f -> %.2f)" s_without s_with)
    true
    (s_with > s_without +. 0.1)

let test_prefetch_extension () =
  (* the paper's future work: MEM_PREFETCH rules on strided accesses;
     under the cold-line cache-miss model the hints hide DRAM latency
     in streaming loops without changing the program's behaviour *)
  let img = compile big_kernel in
  let native = Janus.run_native ~model_cache:true img in
  let without =
    Janus.parallelise ~cfg:(Janus.config ~model_cache:true ()) img
  in
  let with_pf =
    Janus.parallelise
      ~cfg:(Janus.config ~model_cache:true ~prefetch:true ())
      img
  in
  check_same_output "prefetch" native with_pf;
  let s_without = Janus.speedup ~native ~run:without in
  let s_with = Janus.speedup ~native ~run:with_pf in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch helps (%.2f -> %.2f)" s_without s_with)
    true (s_with > s_without)

let test_prefetch_no_cache_model_harmless () =
  (* without the cache model, the hints are pure overhead but must not
     change behaviour; the slowdown stays within the hint issue cost *)
  let img = compile big_kernel in
  let native = Janus.run_native img in
  let with_pf =
    Janus.parallelise ~cfg:(Janus.config ~prefetch:true ()) img
  in
  check_same_output "prefetch without cache model" native with_pf;
  Alcotest.(check bool) "still profitable" true
    (Janus.speedup ~native ~run:with_pf > 2.0)

(* the adv.fission shape without the read_int knob: a carried scalar
   chain (s = s*3 + a[i] is no reduction — the multiply breaks
   associativity) interleaved with an independent streaming store.
   Whole-loop parallelisation is unsound; SCC-driven fission runs the
   stream as a DOALL product and the chain as a sequential residue. *)
let fission_kernel =
  "int a[2048]; int b[2048]; int c[2048];\n\
   int main() {\n\
   \  int n = 2048;\n\
   \  for (int i = 0; i < n; i++) {\n\
   \    a[i] = (i * 7 + 3) % 101;\n\
   \    b[i] = 0;\n\
   \    c[i] = (i * 5 + 1) % 97;\n\
   \  }\n\
   \  int s = 1;\n\
   \  for (int t = 0; t < 24; t++) {\n\
   \    for (int i = 0; i < 2048; i++) {\n\
   \      s = s * 3 + a[i];\n\
   \      b[i] = c[i] * 2 + t;\n\
   \    }\n\
   \  }\n\
   \  print_int(s);\n\
   \  print_int(b[5]);\n\
   \  print_int(b[2000]);\n\
   \  return 0;\n\
   }"

let test_fission_extension () =
  let img = compile fission_kernel in
  let native = Janus.run_native img in
  let without = Janus.parallelise ~cfg:(Janus.config ~threads:4 ()) img in
  let with_fi =
    Janus.parallelise ~cfg:(Janus.config ~threads:4 ~fission:true ()) img
  in
  check_same_output "fission" native with_fi;
  let counter name =
    match with_fi.Janus.obs with
    | None -> 0
    | Some obs -> Janus_obs.Obs.counter obs name
  in
  Alcotest.(check bool) "a loop was split" true (counter "fission.split" >= 1);
  Alcotest.(check bool) "the split verified" true
    (counter "fission.verified" >= 1);
  Alcotest.(check int) "no split demoted" 0 (counter "fission.demoted");
  Alcotest.(check bool) "fission phases ran" true
    (counter "rt.fission_phases" >= 2);
  let s_without = Janus.speedup ~native ~run:without in
  let s_with = Janus.speedup ~native ~run:with_fi in
  Alcotest.(check bool)
    (Printf.sprintf "fission beats sequential (%.3f > 1)" s_with)
    true (s_with > 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "fission helps (%.3f -> %.3f)" s_without s_with)
    true (s_with > s_without)

let test_fission_off_bit_identical () =
  (* ~fission is a pure extension: off (the default), the emitted
     schedule bytes are exactly what the seed system produced *)
  let img = compile fission_kernel in
  let bytes cfg =
    let p = Janus.prepare ~cfg img in
    Janus_schedule.Schedule.to_bytes p.Janus.p_schedule
  in
  let default = bytes (Janus.config ()) in
  let explicit_off = bytes (Janus.config ~fission:false ()) in
  Alcotest.(check bool) "schedule bytes identical" true
    (String.equal (Bytes.to_string default) (Bytes.to_string explicit_off))

let test_stm_everywhere_ablation () =
  (* the paper's argument for sparing STM use (§II-E2): buffering every
     access costs so much that speedups mostly evaporate *)
  let img = compile big_kernel in
  let native = Janus.run_native img in
  let sparing = Janus.parallelise img in
  let everywhere =
    Janus.parallelise ~cfg:(Janus.config ~stm_everywhere:true ()) img
  in
  check_same_output "stm everywhere" native everywhere;
  let s_sparing = Janus.speedup ~native ~run:sparing in
  let s_everywhere = Janus.speedup ~native ~run:everywhere in
  Alcotest.(check bool)
    (Printf.sprintf "sparing %.2f much faster than everywhere %.2f" s_sparing
       s_everywhere)
    true
    (s_sparing > s_everywhere *. 1.5)

let test_dbm_only_overhead () =
  let img = compile big_kernel in
  let native = Janus.run_native img in
  let dbm = Janus.run_dbm_only img in
  Alcotest.(check string) "dbm output" native.Janus.output dbm.Janus.output;
  (* DBM overhead should be a modest slowdown, not catastrophic *)
  let ratio = float_of_int dbm.Janus.cycles /. float_of_int native.Janus.cycles in
  Alcotest.(check bool) (Printf.sprintf "dbm ratio %.3f in [0.8, 1.6]" ratio)
    true
    (ratio > 0.8 && ratio < 1.6)

(* differential property test over the full pipeline *)
let gen_kernel =
  let open QCheck2.Gen in
  let* n = int_range 64 1500 in
  let* k1 = map float_of_int (int_range 1 9) in
  let* k2 = map float_of_int (int_range 1 9) in
  let* reps = int_range 1 3 in
  let* use_red = bool in
  return
    (Printf.sprintf
       "double a[%d]; double b[%d]; double c[%d];\n\
        int main() {\n\
        \  for (int i = 0; i < %d; i++) { a[i] = (double)(i %% 17); b[i] = (double)(i %% 5); }\n\
        \  double s = 0.0;\n\
        \  for (int t = 0; t < %d; t++) {\n\
        \    for (int i = 0; i < %d; i++) { c[i] = a[i] * %f + b[i] * %f; }\n\
        %s\
        \  }\n\
        \  print_float(s + c[%d] + c[0]);\n\
        \  return 0;\n\
        }"
       n n n n reps n k1 k2
       (if use_red then
          Printf.sprintf "    for (int i = 0; i < %d; i++) { s += c[i]; }\n" n
        else "")
       (n - 1))

let prop_pipeline_matches_native =
  QCheck2.Test.make ~count:12 ~name:"janus output = native output"
    ~print:(fun s -> s)
    gen_kernel
    (fun src ->
       let img = compile src in
       let native = Janus.run_native img in
       let par = Janus.parallelise img in
       String.equal native.Janus.output par.Janus.output)

(* harder kernels: runtime-aliased pointers (checks + fallback),
   library calls (STM), carried recurrences (doacross), random configs *)
let gen_hard_kernel =
  let open QCheck2.Gen in
  let* n = int_range 300 1200 in
  let* alias = bool in
  let* use_pow = bool in
  let* carried = bool in
  let* k = map float_of_int (int_range 2 7) in
  let pow_decl = if use_pow then "extern double pow(double, double);\n" else "" in
  let body =
    (if use_pow then
       Printf.sprintf "    q[i] = p[i] * %f + pow(1.01, 4.0);\n" k
     else Printf.sprintf "    q[i] = p[i] * %f + 1.0;\n" k)
    ^ (if carried then "    acc = acc * 0.5 + q[i];\n" else "")
  in
  return
    (Printf.sprintf
       "%sint main() {\n\
        \  double *p = alloc_double(%d);\n\
        \  double *q = %s;\n\
        \  for (int i = 0; i < %d; i++) { p[i] = (double)(i %% 13) * 0.3; }\n\
        \  double acc = 0.0;\n\
        \  for (int i = 0; i < %d; i++) {\n%s  }\n\
        \  print_float(acc + q[0] + q[%d]);\n\
        \  return 0;\n\
        }"
       pow_decl n
       (if alias then "p" else Printf.sprintf "alloc_double(%d)" n)
       n n body (n - 1))

let gen_hard_config =
  let open QCheck2.Gen in
  let* threads = int_range 1 8 in
  let* use_doacross = bool in
  let* stm_everywhere = bool in
  let* rr = bool in
  return
    (Janus.config ~threads ~use_doacross ~stm_everywhere
       ?force_policy:
         (if rr then Some (Janus_schedule.Desc.Round_robin 8) else None)
       ())

let prop_hard_pipeline_matches_native =
  QCheck2.Test.make ~count:15
    ~name:"janus output = native output (aliasing, STM, doacross, configs)"
    ~print:(fun (s, (cfg : Janus.config)) ->
        Printf.sprintf
          "%s\n-- config: threads=%d doacross=%b stm_everywhere=%b policy=%s"
          s cfg.Janus.threads cfg.Janus.use_doacross cfg.Janus.stm_everywhere
          (match cfg.Janus.force_policy with
           | None -> "default"
           | Some Janus_schedule.Desc.Chunked -> "chunked"
           | Some (Janus_schedule.Desc.Round_robin b) ->
             Printf.sprintf "round-robin(%d)" b
           | Some (Janus_schedule.Desc.Doacross p) ->
             Printf.sprintf "doacross(%d)" p))
    QCheck2.Gen.(pair gen_hard_kernel gen_hard_config)
    (fun (src, cfg) ->
       let img = compile src in
       let native = Janus.run_native img in
       let par = Janus.parallelise ~cfg img in
       String.equal native.Janus.output par.Janus.output
       && par.Janus.exit_code = native.Janus.exit_code)

let tests =
  [
    Alcotest.test_case "doall speedup" `Quick test_doall_speedup;
    Alcotest.test_case "reduction parallel" `Quick test_reduction_parallel;
    Alcotest.test_case "int reduction" `Quick test_int_reduction;
    Alcotest.test_case "bounds check pass" `Quick test_bounds_check_pass;
    Alcotest.test_case "bounds check fail -> serial" `Quick
      test_bounds_check_fail_falls_back;
    Alcotest.test_case "excall via STM" `Quick test_excall_stm;
    Alcotest.test_case "thread scaling" `Quick test_thread_scaling;
    Alcotest.test_case "static vs profile configs" `Quick
      test_static_vs_profile_configs;
    Alcotest.test_case "O0 end to end" `Quick test_o0_binary_end_to_end;
    Alcotest.test_case "all opt levels correct" `Slow
      test_all_opt_levels_correct;
    Alcotest.test_case "schedule size small" `Quick test_schedule_size_small;
    Alcotest.test_case "round robin policy" `Quick test_round_robin_policy;
    Alcotest.test_case "doacross extension" `Quick test_doacross_extension;
    Alcotest.test_case "prefetch extension" `Quick test_prefetch_extension;
    Alcotest.test_case "prefetch harmless without cache model" `Quick
      test_prefetch_no_cache_model_harmless;
    Alcotest.test_case "fission extension" `Quick test_fission_extension;
    Alcotest.test_case "fission off is bit-identical" `Quick
      test_fission_off_bit_identical;
    Alcotest.test_case "stm-everywhere ablation" `Quick
      test_stm_everywhere_ablation;
    Alcotest.test_case "dbm-only overhead" `Quick test_dbm_only_overhead;
    QCheck_alcotest.to_alcotest prop_pipeline_matches_native;
    QCheck_alcotest.to_alcotest prop_hard_pipeline_matches_native;
  ]
