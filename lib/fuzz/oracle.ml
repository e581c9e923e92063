module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Verify = Janus_verify.Verify
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Looptree = Janus_analysis.Looptree

type failure = { f_check : string; f_detail : string }
type outcome = Pass | Skip of string | Fail of failure list

let default_threads = [ 1; 2; 4; 8 ]

let failures = function Pass | Skip _ -> [] | Fail fs -> fs

let pp_failure fmt f = Format.fprintf fmt "[%s] %s" f.f_check f.f_detail

(* thresholds zeroed: the generated kernels are tiny, and profitability
   filtering is not what this harness tests — every analysable loop
   must go through selection, scheduling and parallel execution *)
let cfg ~threads ~adapt =
  Janus.config ~threads ~cov_threshold:0.0 ~trip_threshold:0.0
    ~work_threshold:0.0 ~verify:true ~adapt ()

(* a report's loop is matched back to a kernel loop through the compare
   constant: the unroller splits each source loop into a main variant
   (bound B-1, adjust 1) and a remainder (bound B, adjust 0), and
   [iv_bound_const + bound_adjust] recovers the source bound B = lo +
   trip — the kernel loop's bound key — for both *)
let report_key (r : Loopanal.report) =
  match r.Loopanal.iv with
  | None -> None
  | Some iv -> (
    match iv.Loopanal.iv_bound_const with
    | None -> None
    | Some b -> Some (Int64.to_int (Int64.add b iv.Loopanal.bound_adjust)))

let check ?(threads = default_threads) (k : Kernel.t) =
  match Kernel.validate k with
  | Some m -> Skip m
  | None -> (
    match Kernel.ground_truth k with
    | exception Kernel.Invalid m -> Skip m
    | truth -> (
      let fails = ref [] in
      let fail c fmt =
        Printf.ksprintf
          (fun d -> fails := { f_check = c; f_detail = d } :: !fails)
          fmt
      in
      match Emit.image k with
      | exception Failure m ->
        fail "emit" "%s" m;
        Fail (List.rev !fails)
      | img ->
        let native = Janus.run_native img in
        if not (String.equal native.Janus.output truth.Kernel.t_output) then
          fail "interp-vs-native"
            "expected output %S, native printed %S" truth.Kernel.t_output
            native.Janus.output;
        if native.Janus.exit_code <> 0 then
          fail "native-exit" "exit code %d" native.Janus.exit_code;
        if native.Janus.aborted <> None then
          fail "native-aborted" "native run ran out of fuel";
        (* one run's architectural state and cycle-model invariants *)
        let check_run name (r : Janus.result) =
          if not (String.equal r.Janus.output native.Janus.output) then
            fail "output-mismatch" "%s printed %S, native %S" name
              r.Janus.output native.Janus.output;
          if r.Janus.exit_code <> native.Janus.exit_code then
            fail "exit-mismatch" "%s exited %d, native %d" name
              r.Janus.exit_code native.Janus.exit_code;
          if not (String.equal r.Janus.mem_digest native.Janus.mem_digest) then
            fail "memory-mismatch" "%s final memory differs from native" name;
          if r.Janus.aborted <> None then
            fail "aborted" "%s ran out of fuel" name;
          let b = r.Janus.breakdown in
          let parts =
            b.Janus.translate_cycles + b.Janus.check_cycles
            + b.Janus.init_finish_cycles + b.Janus.par_cycles
          in
          if parts > r.Janus.cycles then
            fail "cycle-model" "%s component cycles %d exceed total %d" name
              parts r.Janus.cycles;
          if
            b.Janus.translate_cycles < 0 || b.Janus.check_cycles < 0
            || b.Janus.init_finish_cycles < 0 || b.Janus.par_cycles < 0
            || b.Janus.seq_cycles < 0
          then fail "cycle-model" "%s has a negative cycle component" name
        in
        check_run "dbm-sequential" (Janus.run_dbm_only img);
        (* the static side once, shared across thread counts; the
           verdict too, in a per-kernel store so a campaign leaves
           nothing behind in the process-wide one *)
        let store = Pipeline.store () in
        let base = cfg ~threads:4 ~adapt:false in
        let prepared = Janus.prepare ~cfg:base ~store img in
        (* classification soundness against interpreter ground truth *)
        (* machine iterations of the loop the report describes. jcc
           multi-versions each source loop (unroll by 2), so a
           dependent 2-iteration source loop legitimately yields a
           DOALL-classified main variant with a single machine trip —
           only variants that actually iterate can be misclassified *)
        let machine_trips (r : Loopanal.report) =
          match r.Loopanal.iv with
          | None -> None
          | Some iv -> (
            match iv.Loopanal.iv_init_const, iv.Loopanal.iv_bound_const with
            | Some i0, Some b ->
              let step = Int64.to_int iv.Loopanal.iv_step in
              if step = 0 then None
              else
                let span = Int64.to_int (Int64.sub b i0) in
                Some ((span + step - 1) / step)
            | _ -> None)
        in
        let doall_reports =
          List.filter
            (fun (r : Loopanal.report) ->
              match r.Loopanal.cls with
              | Loopanal.Static_doall -> true
              | _ -> false)
            prepared.Janus.p_analysis.Analysis.reports
        in
        (* any variant classified DOALL keeps a promise... *)
        let doall_keys = List.filter_map report_key doall_reports in
        (* ...but only an *iterating* variant can be misclassified *)
        let iterating_doall_keys =
          List.filter_map
            (fun r ->
              match machine_trips r with
              | Some t when t < 2 -> None
              | _ -> report_key r)
            doall_reports
        in
        List.iter
          (fun (v : Kernel.verdict) ->
            match v.Kernel.v_key with
            | Some key
              when v.Kernel.v_dependent && List.mem key iterating_doall_keys
              ->
              fail "misclassified"
                "loop with bound %d is cross-iteration dependent (%s) yet \
                 classified Static DOALL"
                key v.Kernel.v_why
            | _ -> ())
          truth.Kernel.t_verdicts;
        List.iter
          (fun key ->
            if not (List.mem key doall_keys) then
              fail "promise-broken"
                "loop with bound %d was promised Static DOALL but was not \
                 classified as such"
                key)
          k.Kernel.expect_doall;
        (* the schedule that runs must be clean: every Error finding
           demoted its loop (or emptied the schedule) *)
        let _sched', demoted, findings =
          Pipeline.verify ~store img prepared.Janus.p_schedule
        in
        List.iter
          (fun (f : Verify.finding) ->
            if f.Verify.severity = Verify.Error then
              match f.Verify.lid with
              | Some l when List.mem l demoted -> ()
              | _ ->
                fail "verify-undemoted"
                  "schedule error %s not demoted: %s" f.Verify.code
                  f.Verify.message)
          findings;
        (* parallel execution at each thread count *)
        List.iter
          (fun t ->
            let r =
              Janus.run_parallel ~store ~cfg:(cfg ~threads:t ~adapt:false)
                prepared
            in
            check_run (Printf.sprintf "parallel-%dt" t) r)
          threads;
        (* the adaptive governor must preserve semantics too *)
        check_run "adaptive"
          (Janus.run_parallel ~store ~cfg:(cfg ~threads:4 ~adapt:true)
             prepared);
        (* the fission extension: same architectural state at 1 and 4
           threads, and every promised-fissionable loop must actually
           split and survive the verifier *)
        let fission_cfg ~threads =
          Janus.config ~threads ~cov_threshold:0.0 ~trip_threshold:0.0
            ~work_threshold:0.0 ~verify:true ~fission:true ()
        in
        let fprepared =
          Janus.prepare ~cfg:(fission_cfg ~threads:4) ~store img
        in
        check_run "fission-1t"
          (Janus.run_parallel ~store ~cfg:(fission_cfg ~threads:1)
             fprepared);
        let rf =
          Janus.run_parallel ~store ~cfg:(fission_cfg ~threads:4) fprepared
        in
        check_run "fission-4t" rf;
        (match k.Kernel.expect_fission with
        | [] -> ()
        | keys ->
          let fission_lids =
            List.filter_map
              (fun (r : Rule.t) ->
                if r.Rule.id = Rule.LOOP_FISSION then
                  Some (Int64.to_int r.Rule.aux)
                else None)
              fprepared.Janus.p_schedule.Schedule.rules
          in
          List.iter
            (fun key ->
              let split =
                List.filter_map
                  (fun (r : Loopanal.report) ->
                    let lid = r.Loopanal.loop.Looptree.lid in
                    if report_key r = Some key && List.mem lid fission_lids
                    then Some lid
                    else None)
                  fprepared.Janus.p_analysis.Analysis.reports
              in
              if split = [] then
                fail "fission-promise-broken"
                  "loop with bound %d was promised fissionable but no \
                   variant got a LOOP_FISSION rule"
                  key
              else if
                List.for_all
                  (fun l -> List.mem l rf.Janus.demoted_loops)
                  split
              then
                fail "fission-demoted"
                  "loop with bound %d split but every fission schedule \
                   was demoted by the verifier"
                  key)
            keys);
        (* determinism: same prepared pipeline, cold store then warm *)
        let r1 = Janus.run_parallel ~store ~cfg:base prepared in
        let r2 = Janus.run_parallel ~store ~cfg:base prepared in
        if
          not
            (String.equal r1.Janus.output r2.Janus.output
            && r1.Janus.cycles = r2.Janus.cycles
            && String.equal r1.Janus.mem_digest r2.Janus.mem_digest)
        then
          fail "nondeterministic"
            "cold/warm parallel runs differ (cycles %d vs %d)"
            r1.Janus.cycles r2.Janus.cycles;
        if !fails = [] then Pass else Fail (List.rev !fails)))

(* a truly flow-dependent loop whose expect_doall claims DOALL: the
   classifier (correctly) refuses, so the oracle must report
   promise-broken — proving the harness can catch a lying analyser *)
let mislabelled : Kernel.t =
  let body =
    [
      Kernel.Set
        {
          arr = 0;
          ix = Kernel.At 0;
          e =
            {
              Kernel.e0 = Kernel.Elt (0, Kernel.At (-1));
              rest = [ (Kernel.Add, Kernel.Elt (1, Kernel.At 0)) ];
            };
        };
    ]
  in
  {
    Kernel.asize = 32;
    arrays = 2;
    scalars = 1;
    iarrays = [];
    loops = [ { Kernel.trip = 20; lo = 1; body; inner = None } ];
    call = None;
    expect_doall = [ 21 ];
    expect_fission = [];
  }
