(** Janus: the complete automatic-parallelisation pipeline of Fig. 1(a).

    {[
      let image = Janus_jcc.Jcc.compile source in
      let result = Janus.parallelise image ~config:(Janus.config ~threads:8 ()) in
      (* result.output = the program's output, result.speedup, ... *)
    ]}

    The four evaluation configurations of Fig. 7 map to:
    - native execution: {!run_native}
    - "DynamoRIO": {!run_dbm_only}
    - "Statically-Driven": [parallelise ~config:(config ~use_profile:false ~use_checks:false ())]
    - "Statically-Driven + Profile": [~use_profile:true ~use_checks:false]
    - Janus (full): [~use_profile:true ~use_checks:true] *)

open Janus_vx
open Janus_vm
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Rulegen = Janus_analysis.Rulegen
module Profiler = Janus_profile.Profiler
module Dbm = Janus_dbm.Dbm
module Runtime = Janus_runtime.Runtime
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Verify = Janus_verify.Verify
module Obs = Janus_obs.Obs
module Adapt = Janus_adapt.Adapt

(* the configuration and the static-side stages live in [Pipeline]; the
   type equations keep every existing [Janus.config] user compiling *)
type config = Pipeline.config = {
  threads : int;
  use_profile : bool;       (* profile-guided loop selection *)
  use_checks : bool;        (* dynamic DOALL via checks + speculation *)
  use_doacross : bool;      (* extension: parallelise static-dependence
                               loops by in-order chunk hand-off *)
  cov_threshold : float;    (* min fraction of dynamic instructions *)
  trip_threshold : float;   (* min average iterations per invocation *)
  work_threshold : float;   (* min instructions per invocation: filters
                               loops whose per-invocation work cannot
                               amortise thread start/stop costs *)
  force_policy : Desc.policy option;
  stm_everywhere : bool;    (* ablation: transactional worker chunks *)
  prefetch : bool;          (* extension: MEM_PREFETCH rules on the
                               selected loops' strided accesses *)
  fission : bool;           (* extension: distribute static-dependence
                               loops into a DOALL product plus a
                               sequential residue (LOOP_FISSION) *)
  model_cache : bool;       (* charge cold-line misses (pair with
                               prefetch; compare against a native run
                               with the same flag) *)
  verify : bool;            (* lint the schedule before the DBM applies
                               it; loops with errors degrade to
                               sequential execution *)
  fuel : int;
  trace : bool;             (* record per-thread event timelines in the
                               run's Obs.t (off: zero-cost) *)
  adapt : bool;             (* online adaptive governor: demote
                               misbehaving loops at run time, probe for
                               re-promotion, sample unprofiled dynamic
                               loops (off: bit-identical to before the
                               governor existed) *)
}

let config = Pipeline.config

(** Cycle breakdown of a run (Fig. 8's categories). *)
type breakdown = {
  seq_cycles : int;
  par_cycles : int;
  init_finish_cycles : int;
  translate_cycles : int;
  check_cycles : int;
}

(** Why a run stopped before the program halted. *)
type abort =
  | Out_of_fuel of { addr : int; loop : int option }

type result = {
  output : string;
  exit_code : int;
  cycles : int;
  icount : int;
  breakdown : breakdown;
  stats : Dbm.stats option;
  schedule_size : int;         (* bytes; 0 when no schedule *)
  executable_size : int;
  selected_loops : int list;   (* loop ids parallelised *)
  demoted_loops : int list;    (* loop ids the verifier degraded to
                                  sequential execution *)
  checks_per_loop : (int * int) list;  (* loop id -> pairwise comparisons *)
  stm_commits : int;
  stm_aborts : int;
  mem_digest : string;         (* final globals+heap digest (Run.mem_digest) *)
  aborted : abort option;      (* run truncated (e.g. fuel exhausted) *)
  obs : Obs.t option;          (* the run's tracing/metrics registry *)
  governor : Adapt.t option;   (* the adaptive governor, when ~adapt *)
}

let no_breakdown cycles =
  { seq_cycles = cycles; par_cycles = 0; init_finish_cycles = 0;
    translate_cycles = 0; check_cycles = 0 }

(** The Fig. 8 decomposition as a view over the metrics registry: every
    overhead category is a [dbm.*] counter, and sequential application
    time is whatever the main thread's clock holds beyond them. *)
let breakdown_of_metrics o ~cycles =
  let c = Obs.counter o in
  let other =
    c "dbm.init_finish_cycles" + c "dbm.parallel_cycles"
    + c "dbm.check_cycles" + c "dbm.translate_cycles_main"
  in
  {
    seq_cycles = max 0 (cycles - other);
    par_cycles = c "dbm.parallel_cycles";
    init_finish_cycles = c "dbm.init_finish_cycles";
    translate_cycles = c "dbm.translate_cycles_main";
    check_cycles = c "dbm.check_cycles";
  }

(** Native execution (the baseline every figure normalises against). *)
let run_native ?(fuel = 400_000_000) ?(input = []) ?(model_cache = false) image =
  let r = Run.run ~fuel ~input ~model_cache image in
  {
    output = r.Run.output;
    exit_code = r.Run.exit_code;
    cycles = r.Run.cycles;
    icount = r.Run.icount;
    breakdown = no_breakdown r.Run.cycles;
    mem_digest = r.Run.mem_digest;
    stats = None;
    schedule_size = 0;
    executable_size = Image.size image;
    selected_loops = [];
    demoted_loops = [];
    checks_per_loop = [];
    stm_commits = 0;
    stm_aborts = 0;
    aborted = None;
    obs = None;
    governor = None;
  }

let result_of_dbm_run image ~schedule_size ~selected ?(demoted = []) ~checks
    ?aborted ?governor ~obs (dbm : Dbm.t) (ctx : Machine.t) =
  let s = dbm.Dbm.stats in
  Dbm.publish_metrics dbm obs;
  {
    output = Buffer.contents ctx.Machine.out;
    exit_code = ctx.Machine.exit_code;
    cycles = ctx.Machine.cycles;
    icount = ctx.Machine.icount;
    breakdown = breakdown_of_metrics obs ~cycles:ctx.Machine.cycles;
    stats = Some s;
    schedule_size;
    executable_size = Image.size image;
    selected_loops = selected;
    demoted_loops = demoted;
    checks_per_loop = checks;
    stm_commits = s.Dbm.stm_commits;
    stm_aborts = s.Dbm.stm_aborts;
    mem_digest = Run.mem_digest ctx;
    aborted;
    obs = Some obs;
    governor;
  }

(** Execution under the unmodified DBM (the "DynamoRIO" bar of Fig. 7). *)
let run_dbm_only ?(fuel = 400_000_000) ?(input = []) ?(trace = false) image =
  let prog = Program.load image in
  let obs = Obs.create ~enabled:trace () in
  let dbm = Dbm.create ~obs prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  let aborted =
    match Dbm.run ~fuel dbm cache ctx with
    | `Out_of_fuel addr -> Some (Out_of_fuel { addr; loop = None })
    | `Halted | `Yielded -> None
  in
  result_of_dbm_run image ~schedule_size:0 ~selected:[] ~checks:[] ?aborted
    ~obs dbm ctx

(* ------------------------------------------------------------------ *)
(* Loop selection                                                      *)
(* ------------------------------------------------------------------ *)

type selection = Pipeline.selection = {
  chosen : (Loopanal.report * Desc.policy) list;
  rejected : (int * string) list;  (* loop id, reason *)
}

let select = Pipeline.select

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

type prepared = {
  p_image : Image.t;
  p_analysis : Analysis.t;
  p_coverage : Profiler.coverage option;
  p_deps : Profiler.deps option;
  p_selection : selection;
  p_schedule : Schedule.t;
  p_evidence : Pipeline.evidence option;
}

(** Stages 1-2 of Fig. 1(a) as a composition of the {!Pipeline} stages:
    analysis, optional training-input profiling, loop selection,
    schedule generation. [store] caches the per-stage artifacts by
    content key, so sweeps over execute-stage parameters (threads,
    tracing) recompute nothing. *)
let prepare ?(cfg = config ()) ?(train_input = []) ?evidence ?store ?pool
    image =
  let analysis = Pipeline.analyse ?store ?pool image in
  let coverage, deps =
    (* fleet evidence replaces the training run outright: the merged
       coverage and pessimistic dependence verdicts stand in for one
       profiling run's, gated by the same config switches *)
    match evidence with
    | Some (e : Pipeline.evidence) ->
      ((if cfg.use_profile then e.Pipeline.ev_coverage else None),
       (if cfg.use_checks then e.Pipeline.ev_deps else None))
    | None -> Pipeline.profile ?store ~cfg ~train_input image analysis
  in
  let selection = Pipeline.select ~cfg analysis ~coverage ~deps in
  let schedule =
    Pipeline.schedule ?store ?evidence ~cfg ~train_input image analysis
      selection
  in
  { p_image = image; p_analysis = analysis; p_coverage = coverage;
    p_deps = deps; p_selection = selection; p_schedule = schedule;
    p_evidence = evidence }

(* loop ids carried in the [aux] field of every rule with this id *)
let rule_loops (schedule : Schedule.t) id =
  List.filter_map
    (fun (r : Janus_schedule.Rule.t) ->
       if r.Janus_schedule.Rule.id = id then
         Some (Int64.to_int r.Janus_schedule.Rule.aux)
       else None)
    schedule.Schedule.rules
  |> List.sort_uniq compare

(* Loops the verifier cannot prove safe run sequentially (graceful
   degradation, not a crash). Only a caller that passes a store shares
   verdicts: without one, nothing outlives the call. *)
let gate ~cfg ?store ?pool image schedule =
  if not cfg.verify then (schedule, [], [])
  else
    match store with
    | Some store -> Pipeline.verify ~store ?pool image schedule
    | None -> Verify.check_and_demote ?pool image schedule

(* The execute step both entry points share once their gate has run:
   run [input] under the DBM with [schedule] and the parallel runtime
   attached, and report the run. [register] enrols the deployed loops
   with the governor when [cfg.adapt] makes one; [schedule_size] is the
   size reported, [selected] and [checks] the loops reported. *)
let execute ~cfg ~input ~schedule ~schedule_size ~selected ~demoted ~checks
    ~register image =
  let prog = Program.load image in
  let obs = Obs.create ~enabled:cfg.trace () in
  let dbm = Dbm.create ~schedule ~obs prog in
  let rt_config =
    { Runtime.threads = cfg.threads; force_policy = cfg.force_policy;
      stm_access_limit = 4096; stm_everywhere = cfg.stm_everywhere;
      fuel = cfg.fuel }
  in
  let governor =
    if cfg.adapt then Some (Adapt.create ~obs ()) else None
  in
  Option.iter register governor;
  let rt = Runtime.create ~config:rt_config ?adapt:governor dbm in
  Runtime.install rt;
  let ctx = Run.fresh_context prog in
  ctx.Machine.model_cache <- cfg.model_cache;
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  let aborted =
    try
      match Dbm.run ~fuel:cfg.fuel dbm rt.Runtime.main_cache ctx with
      | `Out_of_fuel addr ->
        let loop =
          if rt.Runtime.current_loop >= 0 then Some rt.Runtime.current_loop
          else None
        in
        Some (Out_of_fuel { addr; loop })
      | `Halted | `Yielded -> None
    with Runtime.Worker_out_of_fuel (_w, addr) ->
      Some (Out_of_fuel { addr; loop = Some rt.Runtime.current_loop })
  in
  Runtime.publish_metrics rt obs;
  result_of_dbm_run image ~schedule_size ~selected ~demoted ~checks ?aborted
    ?governor ~obs dbm ctx

(** Stage 3: run the program under the DBM with the parallelisation
    schedule (the "Parallelisation Stage"). *)
let run_parallel ?(cfg = config ()) ?(input = []) ?store ?pool (p : prepared) =
  let schedule, demoted, _ = gate ~cfg ?store ?pool p.p_image p.p_schedule in
  let lid (r : Loopanal.report) = r.Loopanal.loop.Janus_analysis.Looptree.lid in
  let chosen = List.map fst p.p_selection.chosen in
  (* A loop counts as profiled when its selection rests on evidence:
     static-class loops always, dynamic (checked) loops only when
     dependence profiling actually ran. Unprofiled dynamic loops start
     in the governor's training-free sampling state. A loop whose
     aggregated fleet history is suspect (demotions, failed checks in
     earlier runs) warm-starts in probation instead of re-earning its
     first demotion from scratch. *)
  let register g =
    let suspect =
      match p.p_evidence with
      | Some e -> e.Pipeline.ev_suspect
      | None -> []
    in
    List.iter
      (fun r ->
         let l = lid r in
         if not (List.mem l demoted) then
           if List.mem l suspect then Adapt.register_suspect g l
           else
             Adapt.register g l
               ~profiled:(r.Loopanal.check_ranges = [] || p.p_deps <> None))
      chosen
  in
  let selected =
    List.filter (fun l -> not (List.mem l demoted)) (List.map lid chosen)
  in
  let checks =
    List.filter_map
      (fun (r : Loopanal.report) ->
         if r.Loopanal.check_ranges = [] then None
         else
           let cd =
             {
               Desc.check_loop_id = lid r;
               ranges =
                 List.map
                   (fun (c : Loopanal.check_range) ->
                      { Desc.base = c.Loopanal.ck_base;
                        extent = c.Loopanal.ck_extent;
                        width = c.Loopanal.ck_width;
                        written = c.Loopanal.ck_written })
                   r.Loopanal.check_ranges;
             }
           in
           Some (lid r, Desc.check_pairs cd))
      chosen
  in
  let res =
    execute ~cfg ~input ~schedule ~schedule_size:(Schedule.size p.p_schedule)
      ~selected ~demoted ~checks ~register p.p_image
  in
  (* fission census: how many Static-Dependence loops were examined,
     how many the schedule split, and how the verifier judged those *)
  (match res.obs with
   | Some obs when cfg.fission ->
     let is_static_dep (r : Loopanal.report) =
       match r.Loopanal.cls with Loopanal.Static_dep _ -> true | _ -> false
     in
     let split = rule_loops p.p_schedule Janus_schedule.Rule.LOOP_FISSION in
     let split_demoted = List.filter (fun l -> List.mem l demoted) split in
     Obs.set obs "fission.considered"
       (List.length (List.filter is_static_dep p.p_analysis.Analysis.reports));
     Obs.set obs "fission.split" (List.length split);
     Obs.set obs "fission.demoted" (List.length split_demoted);
     Obs.set obs "fission.verified"
       (List.length split - List.length split_demoted)
   | _ -> ());
  res

(** Run under the DBM with a pre-generated rewrite schedule — the
    paper's deployment model: the schedule is produced offline by the
    static analyser and shipped next to the binary; no analysis happens
    at run time. *)
let run_scheduled ?(cfg = config ()) ?(input = []) ?pool image schedule =
  let shipped_size = Schedule.size schedule in
  let schedule, demoted, _ = gate ~cfg ?pool image schedule in
  (* the deployed loop set is whatever the shipped schedule initialises
     — by LOOP_INIT or by LOOP_FISSION *)
  let rule_loops id = rule_loops schedule id in
  let selected =
    List.sort_uniq compare
      (rule_loops Janus_schedule.Rule.LOOP_INIT
       @ rule_loops Janus_schedule.Rule.LOOP_FISSION)
  in
  (* Deployment model: the schedule ships alone, with no [.jpf] beside
     it — so a checked (Dynamic-class) loop carries no dependence
     evidence and starts in the governor's training-free sampling
     state; unchecked loops were proven statically. *)
  let register g =
    let checked = rule_loops Janus_schedule.Rule.MEM_BOUNDS_CHECK in
    List.iter
      (fun l -> Adapt.register g l ~profiled:(not (List.mem l checked)))
      selected
  in
  execute ~cfg ~input ~schedule ~schedule_size:shipped_size ~selected
    ~demoted ~checks:[] ~register image

(** The whole pipeline: analyse, profile on the training input, select,
    parallelise, run on the reference input. *)
let parallelise ?(cfg = config ()) ?(train_input = []) ?(input = [])
    ?evidence ?store ?pool image =
  let p = prepare ~cfg ~train_input ?evidence ?store ?pool image in
  run_parallel ~cfg ~input ?store ?pool p

(** Convenience: speedup of [b] over [a] (same program, same input). *)
let speedup ~native ~run =
  if run.cycles = 0 then 0.0
  else float_of_int native.cycles /. float_of_int run.cycles
