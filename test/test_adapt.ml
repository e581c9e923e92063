(* Tests for the online adaptive loop governor: the policy engine's
   transitions in isolation, training-free dependence sampling against
   real machine contexts, and end-to-end adaptive runs on the
   adversarial benchmark pair. *)

open Janus_vx
open Janus_vm
open Janus_core
module Adapt = Janus_adapt.Adapt
module Obs = Janus_obs.Obs
module Suite = Janus_suite.Suite

(* small, crisp policy knobs for the unit tests *)
let p =
  { Adapt.window = 4; demote_k = 2; promote_k = 2; probe_period = 3;
    sample_n = 2; gain_pct = 100 }

let lid = 7

let decision =
  Alcotest.testable
    (fun ppf d ->
       Fmt.string ppf
         (match d with
          | Adapt.Go_parallel -> "parallel"
          | Adapt.Go_probe -> "probe"
          | Adapt.Go_sequential -> "sequential"
          | Adapt.Go_sample -> "sample"))
    ( = )

let state =
  Alcotest.testable
    (fun ppf s -> Fmt.string ppf (Adapt.state_name s))
    ( = )

let check_state g expected msg =
  Alcotest.(check (option state)) msg (Some expected) (Adapt.state g lid)

(* ------------------------------------------------------------------ *)
(* Policy engine                                                       *)
(* ------------------------------------------------------------------ *)

let good g = Adapt.record_parallel g lid ~now:0 ~work:800 ~cost:200
    ~commits:0 ~aborts:0

let test_demote_after_k_bad () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  check_state g Adapt.Parallel "profiled loop starts parallel";
  Alcotest.(check decision) "first decision" Adapt.Go_parallel
    (Adapt.decide g lid ~now:0);
  Adapt.record_fallback g lid ~now:0;
  check_state g Adapt.Parallel "one bad invocation is tolerated";
  ignore (Adapt.decide g lid ~now:0);
  Adapt.record_fallback g lid ~now:0;
  check_state g Adapt.Probation "demote_k bad invocations demote";
  ignore (Adapt.decide g lid ~now:0);
  Adapt.record_fallback g lid ~now:0;
  check_state g Adapt.Sequential "any bad invocation on probation demotes";
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check int) "two demotions recorded" 2 s.Adapt.demotions;
  Alcotest.(check int) "three fallbacks recorded" 3 s.Adapt.fallbacks

let test_good_outcomes_keep_parallel () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  for _ = 1 to 20 do
    Alcotest.(check decision) "stays parallel" Adapt.Go_parallel
      (Adapt.decide g lid ~now:0);
    good g
  done;
  check_state g Adapt.Parallel "good loop never leaves parallel";
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check int) "no demotions" 0 s.Adapt.demotions

let test_losing_parallelism_is_bad () =
  (* realised work below the main-thread cost counts as bad even when
     every check passes: the invocation lost cycles *)
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  ignore (Adapt.decide g lid ~now:0);
  Adapt.record_parallel g lid ~now:0 ~work:100 ~cost:900 ~commits:0 ~aborts:0;
  ignore (Adapt.decide g lid ~now:0);
  Adapt.record_parallel g lid ~now:0 ~work:100 ~cost:900 ~commits:0 ~aborts:0;
  check_state g Adapt.Probation "cycle-losing invocations demote"

let test_aborts_outnumbering_commits_is_bad () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  for _ = 1 to 2 do
    ignore (Adapt.decide g lid ~now:0);
    Adapt.record_parallel g lid ~now:0 ~work:800 ~cost:200 ~commits:1
      ~aborts:5
  done;
  check_state g Adapt.Probation "abort-dominated invocations demote"

let demote_to_sequential g =
  for _ = 1 to 3 do
    ignore (Adapt.decide g lid ~now:0);
    Adapt.record_fallback g lid ~now:0
  done

let test_probe_and_repromote () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  demote_to_sequential g;
  check_state g Adapt.Sequential "demoted";
  (* probe_period - 1 sequential invocations, then a probe *)
  Alcotest.(check decision) "seq 1" Adapt.Go_sequential (Adapt.decide g lid ~now:0);
  Alcotest.(check decision) "seq 2" Adapt.Go_sequential (Adapt.decide g lid ~now:0);
  Alcotest.(check decision) "probe" Adapt.Go_probe (Adapt.decide g lid ~now:0);
  (* a good probe re-enters probation; promote_k good invocations
     restore full parallel execution *)
  good g;
  check_state g Adapt.Probation "good probe promotes to probation";
  ignore (Adapt.decide g lid ~now:0);
  good g;
  ignore (Adapt.decide g lid ~now:0);
  good g;
  check_state g Adapt.Parallel "promote_k good invocations re-promote";
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check int) "probe counted" 1 s.Adapt.probes;
  Alcotest.(check int) "two promotions" 2 s.Adapt.promotions

let test_failed_probe_stays_sequential () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  demote_to_sequential g;
  ignore (Adapt.decide g lid ~now:0);
  ignore (Adapt.decide g lid ~now:0);
  Alcotest.(check decision) "probe" Adapt.Go_probe (Adapt.decide g lid ~now:0);
  Adapt.record_fallback g lid ~now:0;
  check_state g Adapt.Sequential "failed probe stays sequential";
  (* the probe counter restarts: another full period before the next *)
  Alcotest.(check decision) "seq" Adapt.Go_sequential (Adapt.decide g lid ~now:0)

let test_skip_check_caches_decision () =
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:true;
  demote_to_sequential g;
  (* the check hook asks first; its answer must be the same decision
     LOOP_INIT consumes, not a second drawing (which would advance the
     probe counter twice per invocation) *)
  Alcotest.(check bool) "check skipped" true (Adapt.skip_check g lid);
  Alcotest.(check bool) "idempotent" true (Adapt.skip_check g lid);
  Alcotest.(check decision) "consumed" Adapt.Go_sequential
    (Adapt.decide g lid ~now:0);
  Alcotest.(check bool) "seq 2" true (Adapt.skip_check g lid);
  ignore (Adapt.decide g lid ~now:0);
  Alcotest.(check bool) "probe not skipped" false (Adapt.skip_check g lid);
  Alcotest.(check decision) "probe" Adapt.Go_probe (Adapt.decide g lid ~now:0)

let test_ungoverned_loop_inert () =
  let g = Adapt.create ~params:p () in
  Alcotest.(check bool) "not governed" false (Adapt.governed g lid);
  Alcotest.(check bool) "no skip" false (Adapt.skip_check g lid);
  Alcotest.(check decision) "always parallel" Adapt.Go_parallel
    (Adapt.decide g lid ~now:0);
  Adapt.record_fallback g lid ~now:0;
  Alcotest.(check (list pass)) "no ledger" [] (Adapt.snapshot g)

let test_governor_events_emitted () =
  let obs = Obs.create ~enabled:true () in
  let g = Adapt.create ~params:p ~obs () in
  Adapt.register g lid ~profiled:true;
  demote_to_sequential g;
  ignore (Adapt.decide g lid ~now:0);
  ignore (Adapt.decide g lid ~now:0);
  ignore (Adapt.decide g lid ~now:0);  (* probe *)
  good g;                              (* promote to probation *)
  let count cat =
    try List.assoc cat (Obs.categories obs) with Not_found -> 0
  in
  Alcotest.(check int) "demotions traced" 2 (count "governor_demoted");
  Alcotest.(check int) "probe traced" 1 (count "governor_probe");
  Alcotest.(check int) "promotion traced" 1 (count "governor_promoted")

(* ------------------------------------------------------------------ *)
(* Training-free sampling against a real machine context               *)
(* ------------------------------------------------------------------ *)

let make_ctx () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b Insn.Hlt;
  let img = Builder.to_image b ~entry:"_start" in
  let prog = Program.load ~code:(Code.of_image img) img in
  Run.fresh_context prog

let test_sampling_finds_dependence () =
  let ctx = make_ctx () in
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:false;
  check_state g Adapt.Sampling "unprofiled loop starts sampling";
  Alcotest.(check bool) "check skipped while sampling" true
    (Adapt.skip_check g lid);
  Alcotest.(check decision) "sample decision" Adapt.Go_sample
    (Adapt.decide g lid ~now:0);
  let iter = ref 0L in
  Adapt.sample_begin g lid ctx ~read_iv:(fun () -> !iter) ~exclude:[];
  Semantics.raw_write ctx 0x800000 1L;
  iter := 1L;
  ignore (Semantics.raw_read ctx 0x800000);  (* cross-iteration RAW *)
  Adapt.sample_end g lid ctx ~now:0;
  check_state g Adapt.Sequential "one observed dependence is conclusive";
  Alcotest.(check bool) "observer uninstalled" true (ctx.Machine.observe = None);
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check bool) "dep recorded" true s.Adapt.sampled_dep

let test_sampling_commits_to_parallel () =
  let ctx = make_ctx () in
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:false;
  for s = 0 to p.Adapt.sample_n - 1 do
    check_state g Adapt.Sampling "still sampling";
    ignore (Adapt.decide g lid ~now:0);
    let iter = ref 0L in
    Adapt.sample_begin g lid ctx ~read_iv:(fun () -> !iter) ~exclude:[];
    (* every iteration touches its own word: independent *)
    for i = 0 to 3 do
      iter := Int64.of_int i;
      Semantics.raw_write ctx (0x800000 + (64 * s) + (8 * i)) 1L
    done;
    Adapt.sample_end g lid ctx ~now:0
  done;
  check_state g Adapt.Parallel "a clean sample budget commits to parallel";
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check int) "samples counted" p.Adapt.sample_n s.Adapt.samples;
  Alcotest.(check bool) "no dep" false s.Adapt.sampled_dep

let test_sampling_exclusions () =
  (* privatised/reduction addresses and accesses outside globals+heap
     must not register as dependences *)
  let ctx = make_ctx () in
  let g = Adapt.create ~params:p () in
  Adapt.register g lid ~profiled:false;
  ignore (Adapt.decide g lid ~now:0);
  let iter = ref 0L in
  Adapt.sample_begin g lid ctx ~read_iv:(fun () -> !iter) ~exclude:[ 0x800100 ];
  let stack = Layout.stack_top - 64 in
  Semantics.raw_write ctx 0x800100 1L;  (* excluded (reduction loc) *)
  Semantics.raw_write ctx stack 1L;     (* outside globals+heap *)
  iter := 1L;
  Semantics.raw_write ctx 0x800100 2L;
  Semantics.raw_write ctx stack 2L;
  Adapt.sample_end g lid ctx ~now:0;
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check bool) "excluded accesses carry no dep" false
    s.Adapt.sampled_dep

(* ------------------------------------------------------------------ *)
(* End-to-end: the adversarial pair                                    *)
(* ------------------------------------------------------------------ *)

let runs b ~adapt =
  let image = Suite.compile b in
  let native = Janus.run_native ~input:(Suite.ref_input b) image in
  let par =
    Janus.parallelise
      ~cfg:(Janus.config ~adapt ())
      ~train_input:(Suite.train_input b)
      ~input:(Suite.ref_input b) image
  in
  (native, par)

let test_adv_alias_demoted_and_faster () =
  let b = Suite.find_exn "adv.alias" in
  let native, static = runs b ~adapt:false in
  let _, adaptive = runs b ~adapt:true in
  (* the kernel must actually be deployed as a checked parallel loop,
     or this test would pass vacuously *)
  Alcotest.(check bool) "kernel selected" true
    (static.Janus.selected_loops <> []);
  Alcotest.(check string) "static output" native.Janus.output
    static.Janus.output;
  Alcotest.(check string) "adaptive output" native.Janus.output
    adaptive.Janus.output;
  let g =
    match adaptive.Janus.governor with
    | Some g -> g
    | None -> Alcotest.fail "adaptive run carries its governor"
  in
  let s =
    match List.filter (fun s -> s.Adapt.demotions > 0) (Adapt.snapshot g) with
    | [ s ] -> s
    | _ -> Alcotest.fail "exactly one loop should be demoted"
  in
  Alcotest.(check state) "pathological loop ends sequential"
    Adapt.Sequential s.Adapt.final;
  (* demoted within K bad invocations: with the default window the
     governor needs demote_k bad to leave Parallel and one more to
     leave Probation *)
  let k = (Adapt.params g).Adapt.demote_k + 1 in
  Alcotest.(check bool)
    (Printf.sprintf "fallbacks %d within K=%d (+probes %d)" s.Adapt.fallbacks
       k s.Adapt.probes)
    true
    (s.Adapt.fallbacks <= k + s.Adapt.probes);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d < static %d cycles" adaptive.Janus.cycles
       static.Janus.cycles)
    true
    (adaptive.Janus.cycles < static.Janus.cycles)

let test_adv_stable_unchanged_by_governor () =
  let b = Suite.find_exn "adv.stable" in
  let native, static = runs b ~adapt:false in
  let _, adaptive = runs b ~adapt:true in
  Alcotest.(check bool) "kernel selected" true
    (static.Janus.selected_loops <> []);
  Alcotest.(check string) "output" native.Janus.output adaptive.Janus.output;
  (* a well-behaved loop never leaves Parallel, so the governed run
     takes exactly the decisions the static schedule would *)
  Alcotest.(check int) "cycles identical" static.Janus.cycles
    adaptive.Janus.cycles;
  (match adaptive.Janus.governor with
   | Some g ->
     List.iter
       (fun s ->
          Alcotest.(check int) "no demotions" 0 s.Adapt.demotions;
          Alcotest.(check state) "stays parallel" Adapt.Parallel s.Adapt.final)
       (Adapt.snapshot g)
   | None -> Alcotest.fail "governor missing")

(* ------------------------------------------------------------------ *)
(* Training-free mode end-to-end (run_scheduled = deployment with the  *)
(* schedule shipped alone)                                             *)
(* ------------------------------------------------------------------ *)

let test_training_free_commits_parallel () =
  let b = Suite.find_exn "adv.stable" in
  let image = Suite.compile b in
  let cfg = Janus.config ~adapt:true () in
  let prep = Janus.prepare ~cfg ~train_input:(Suite.train_input b) image in
  let native = Janus.run_native ~input:(Suite.ref_input b) image in
  let r = Janus.run_scheduled ~cfg ~input:(Suite.ref_input b) image
      prep.Janus.p_schedule
  in
  Alcotest.(check string) "output" native.Janus.output r.Janus.output;
  let g = Option.get r.Janus.governor in
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check state) "committed to parallel" Adapt.Parallel s.Adapt.final;
  Alcotest.(check int) "sampled the configured budget"
    (Adapt.params g).Adapt.sample_n s.Adapt.samples;
  Alcotest.(check bool) "then ran parallel" true (s.Adapt.par_invocations > 0)

(* aliasing is input-dependent: training sees mode 0 (disjoint), the
   deployed run sees mode 1 (aliased from the first invocation) *)
let aliasing_src =
  "void kernel(double *src, double *dst, int n) {\n\
   \  for (int i = 0; i < n; i++) {\n\
   \    dst[i + 1] = src[i] * 0.5 + dst[i + 1] * 0.25;\n\
   \  }\n\
   }\n\
   int main() {\n\
   \  int iters = read_int();\n\
   \  int mode = read_int();\n\
   \  int n = 480;\n\
   \  double *a = alloc_double(n + 1);\n\
   \  double *b = alloc_double(n + 1);\n\
   \  for (int i = 0; i <= n; i++) {\n\
   \    a[i] = (double)(i % 7) * 0.25;\n\
   \    b[i] = (double)(i % 5) * 0.5;\n\
   \  }\n\
   \  double acc = 0.0;\n\
   \  for (int t = 0; t < iters; t++) {\n\
   \    if (mode == 0) { kernel(a, b, n); } else { kernel(b, b, n); }\n\
   \    acc = acc * 0.5 + b[n] + b[n / 2];\n\
   \  }\n\
   \  print_float(acc);\n\
   \  return 0;\n\
   }"

let test_training_free_commits_sequential () =
  let image = Janus_jcc.Jcc.compile aliasing_src in
  let cfg = Janus.config ~adapt:true () in
  let prep = Janus.prepare ~cfg ~train_input:[ 40L; 0L ] image in
  let native = Janus.run_native ~input:[ 60L; 1L ] image in
  let r = Janus.run_scheduled ~cfg ~input:[ 60L; 1L ] image
      prep.Janus.p_schedule
  in
  Alcotest.(check string) "output" native.Janus.output r.Janus.output;
  let g = Option.get r.Janus.governor in
  let s = List.hd (Adapt.snapshot g) in
  Alcotest.(check state) "committed to sequential" Adapt.Sequential
    s.Adapt.final;
  Alcotest.(check bool) "dependence sampled" true s.Adapt.sampled_dep;
  (* the whole point: outside the periodic re-promotion probes, the
     loop never reaches a failing check *)
  Alcotest.(check int) "only probes fall back" s.Adapt.probes
    s.Adapt.fallbacks;
  Alcotest.(check int) "only probes fail checks" s.Adapt.probes
    s.Adapt.checks_failed

(* ------------------------------------------------------------------ *)
(* Sequential-fallback path: counters agree with the trace, output     *)
(* with native                                                         *)
(* ------------------------------------------------------------------ *)

let test_fallback_counters_agree_with_trace () =
  (* a shortened adv.alias run (48 parallel invocations, then 8 whose
     check fails and flushes the modified code) keeps the full trace
     inside the ring buffer so the census is complete *)
  let b = Suite.find_exn "adv.alias" in
  let image = Suite.compile b in
  let native = Janus.run_native ~input:[ 56L ] image in
  let par =
    Janus.parallelise
      ~cfg:(Janus.config ~trace:true ())
      ~train_input:(Suite.train_input b) ~input:[ 56L ] image
  in
  Alcotest.(check bool) "kernel selected" true
    (par.Janus.selected_loops <> []);
  Alcotest.(check string) "failed checks degrade to native output"
    native.Janus.output par.Janus.output;
  let obs = Option.get par.Janus.obs in
  Alcotest.(check int) "no events dropped" 0 (Obs.dropped obs);
  let census cat =
    try List.assoc cat (Obs.categories obs) with Not_found -> 0
  in
  Alcotest.(check bool) "fallbacks happened" true
    (Obs.counter obs "rt.seq_fallbacks" > 0);
  Alcotest.(check int) "seq_fallback counter agrees with trace"
    (census "seq_fallback")
    (Obs.counter obs "rt.seq_fallbacks");
  Alcotest.(check bool) "cache flushed" true
    (Obs.counter obs "dbm.cache_flushes" > 0);
  Alcotest.(check int) "cache_flushed counter agrees with trace"
    (census "cache_flushed")
    (Obs.counter obs "dbm.cache_flushes");
  Alcotest.(check int) "failed checks counter agrees with trace"
    (census "check_failed")
    (Obs.counter obs "rt.checks_failed")

(* ------------------------------------------------------------------ *)
(* Regression: per-invocation check stats reset at LOOP_INIT           *)
(* ------------------------------------------------------------------ *)

let test_inv_check_stats_reset_per_invocation () =
  (* 250 invocations of a checked loop: if the per-invocation stats
     leaked across LOOP_INITs the high-water mark would reach 250 *)
  let b = Suite.find_exn "adv.stable" in
  let _, par = runs b ~adapt:false in
  let obs = Option.get par.Janus.obs in
  Alcotest.(check bool) "checks ran" true
    (Obs.counter obs "rt.checks_passed" > 100);
  Alcotest.(check int) "at most one check charged per invocation" 1
    (Obs.counter obs "rt.max_inv_checks")

let tests =
  [
    Alcotest.test_case "demote after K bad" `Quick test_demote_after_k_bad;
    Alcotest.test_case "good outcomes keep parallel" `Quick
      test_good_outcomes_keep_parallel;
    Alcotest.test_case "losing parallelism is bad" `Quick
      test_losing_parallelism_is_bad;
    Alcotest.test_case "abort-dominated is bad" `Quick
      test_aborts_outnumbering_commits_is_bad;
    Alcotest.test_case "probe and re-promote" `Quick test_probe_and_repromote;
    Alcotest.test_case "failed probe stays sequential" `Quick
      test_failed_probe_stays_sequential;
    Alcotest.test_case "skip_check caches the decision" `Quick
      test_skip_check_caches_decision;
    Alcotest.test_case "ungoverned loop is inert" `Quick
      test_ungoverned_loop_inert;
    Alcotest.test_case "governor events emitted" `Quick
      test_governor_events_emitted;
    Alcotest.test_case "sampling finds dependence" `Quick
      test_sampling_finds_dependence;
    Alcotest.test_case "sampling commits to parallel" `Quick
      test_sampling_commits_to_parallel;
    Alcotest.test_case "sampling exclusions" `Quick test_sampling_exclusions;
    Alcotest.test_case "adv.alias demoted and faster" `Slow
      test_adv_alias_demoted_and_faster;
    Alcotest.test_case "adv.stable unchanged by governor" `Slow
      test_adv_stable_unchanged_by_governor;
    Alcotest.test_case "training-free commits parallel" `Slow
      test_training_free_commits_parallel;
    Alcotest.test_case "training-free commits sequential" `Slow
      test_training_free_commits_sequential;
    Alcotest.test_case "fallback counters agree with trace" `Slow
      test_fallback_counters_agree_with_trace;
    Alcotest.test_case "per-invocation check stats reset" `Slow
      test_inv_check_stats_reset_per_invocation;
  ]
