(* The per-layer ledger of a traced run: counters read from the results
   the benchmark's calls already return, and the layer metrics derived
   from them and from the spans' self times. *)

module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Dbm = Janus_dbm.Dbm
module Obs = Janus_obs.Obs
module Verify = Janus_verify.Verify

(* Counters of one execution: [layer] is "vm", "dbm" or "runtime". *)
let result t ~layer (r : Janus.result) =
  let add = Trace.add t in
  add (layer ^ ".icount") (float_of_int r.Janus.icount);
  (match r.Janus.stats with
   | None -> ()
   | Some s ->
     add "dbm.all_icount" (float_of_int r.Janus.icount);
     add "dbm.dispatches" (float_of_int s.Dbm.dispatches);
     add "dbm.translated" (float_of_int s.Dbm.translated_insns);
     add "dbm.fragments" (float_of_int s.Dbm.fragments_built);
     add "dbm.traces" (float_of_int s.Dbm.traces_built);
     add "dbm.flushes" (float_of_int s.Dbm.cache_flushes);
     add "rt.stm_commits" (float_of_int s.Dbm.stm_commits);
     add "rt.stm_aborts" (float_of_int s.Dbm.stm_aborts));
  match r.Janus.obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun k -> add k (float_of_int (Obs.counter o k)))
      [ "rt.chunks"; "rt.checks_passed"; "rt.checks_failed";
        "rt.seq_fallbacks"; "adapt.demotions"; "adapt.probes" ]

(* One execute call, timed under [layer] with its Gc deltas. *)
let execute t ~layer f =
  let r = Trace.span t layer (fun () -> Trace.with_gc t f) in
  result t ~layer r;
  r

(* [Verify.check_and_demote] under the "verify" layer. *)
let verify t image schedule =
  let ((_, demoted, findings) as v) =
    Trace.span t "verify" (fun () -> Verify.check_and_demote image schedule)
  in
  Trace.add t "verify.calls" 1.0;
  Trace.add t "verify.findings" (float_of_int (List.length findings));
  Trace.add t "verify.demoted" (float_of_int (List.length demoted));
  v

(* Fold an artifact store's counters into the ledger. *)
let store t s =
  List.iter
    (fun (k : Pipeline.kind_stat) ->
       Trace.add t "store.mem_hits" (float_of_int k.Pipeline.k_mem_hits);
       Trace.add t "store.disk_hits" (float_of_int k.Pipeline.k_disk_hits);
       Trace.add t "store.misses" (float_of_int k.Pipeline.k_misses);
       Trace.add t "store.disk_errors" (float_of_int k.Pipeline.k_disk_errors))
    (Pipeline.kind_stats s)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* A memoised pipeline stage: time in a call that recomputed is the
   stage's own [layer], and counts one [layer.calls] and runs [on_miss]
   on the artifact; a call answered from the artifact store (memory or
   disk) is the store's. *)
let staged t store layer f on_miss =
  let misses () = (Pipeline.cache_stats store).Pipeline.misses in
  let before = misses () in
  let r =
    Trace.span_as t (fun () -> if misses () > before then layer else "store") f
  in
  if misses () > before then begin
    Trace.add t (layer ^ ".calls") 1.0;
    on_miss r
  end;
  r

(* [Janus.prepare] replayed as its public Pipeline stages. *)
let prepare t ~store ~cfg ~train_input ?evidence image =
  let analysis =
    staged t store "analysis" (fun () -> Pipeline.analyse ~store image)
      (fun a ->
         Trace.add t "analysis.functions"
           (float_of_int
              (List.length (Janus_analysis.Cfg.all_funcs a.Janus_analysis.Analysis.cfg))))
  in
  let coverage, deps =
    match evidence with
    | Some (e : Pipeline.evidence) ->
      ((if cfg.Pipeline.use_profile then e.Pipeline.ev_coverage else None),
       (if cfg.Pipeline.use_checks then e.Pipeline.ev_deps else None))
    | None ->
      staged t store "profile"
        (fun () -> Pipeline.profile ~store ~cfg ~train_input image analysis)
        ignore
  in
  let selection =
    Trace.span t "schedule" (fun () ->
        Pipeline.select ~cfg analysis ~coverage ~deps)
  in
  let schedule =
    staged t store "schedule"
      (fun () ->
         Pipeline.schedule ~store ?evidence ~cfg ~train_input image analysis
           selection)
      (fun s ->
         Trace.add t "schedule.bytes"
           (float_of_int (Janus_schedule.Schedule.size s)))
  in
  { Janus.p_image = image; p_analysis = analysis; p_coverage = coverage;
    p_deps = deps; p_selection = selection; p_schedule = schedule;
    p_evidence = evidence }

(* [Janus.run_parallel] replayed as [Verify.check_and_demote], then the
   execution with [verify = false] on the verified schedule. *)
let run_parallel t ~cfg ?(input = []) (p : Janus.prepared) =
  let schedule =
    if cfg.Pipeline.verify then
      let s, _, _ = verify t p.Janus.p_image p.Janus.p_schedule in
      s
    else p.Janus.p_schedule
  in
  execute t ~layer:"runtime" (fun () ->
      Janus.run_parallel ~cfg:{ cfg with Pipeline.verify = false } ~input
        { p with Janus.p_schedule = schedule })


(* Every per-layer metric, in a fixed order; [extra] supplies the
   sample-based ones a workload measures itself (served.overhead_ms,
   pgo.ingest_ms and the fuzz samples) and the harness figures. *)
let metrics t ~extra =
  let c = Trace.get t in
  let self = Trace.self_times t in
  let busy l = Option.value ~default:0.0 (List.assoc_opt l self) in
  let m name unit_ v = Common.metric name unit_ ~samples:1 v in
  let mips layer = ratio (c (layer ^ ".icount")) (busy layer) /. 1e6 in
  let per_kinsn k = 1000.0 *. ratio (c k) (c "dbm.all_icount") in
  let x name unit_ =
    match List.find_opt (fun (mt : Common.metric) -> mt.Common.name = name) extra with
    | Some mt -> mt
    | None -> m name unit_ 0.0
  in
  [ m "vm.busy_s" "s" (busy "vm");
    m "vm.minstr_per_s" "Minstr/s" (mips "vm");
    m "dbm.busy_s" "s" (busy "dbm");
    m "dbm.minstr_per_s" "Minstr/s" (mips "dbm");
    m "dbm.dispatches_per_kinsn" "1/kinsn" (per_kinsn "dbm.dispatches");
    m "dbm.traces_built" "count" (c "dbm.traces");
    m "dbm.translated_per_kinsn" "1/kinsn" (per_kinsn "dbm.translated");
    m "dbm.fragments_built" "count" (c "dbm.fragments");
    m "dbm.cache_flushes" "count" (c "dbm.flushes");
    m "runtime.busy_s" "s" (busy "runtime");
    m "runtime.minstr_per_s" "Minstr/s" (mips "runtime");
    m "runtime.chunks" "count" (c "rt.chunks");
    m "runtime.check_pass_rate" "share"
      (ratio (c "rt.checks_passed") (c "rt.checks_passed" +. c "rt.checks_failed"));
    m "runtime.seq_fallbacks" "count" (c "rt.seq_fallbacks");
    m "runtime.stm_commit_rate" "share"
      (ratio (c "rt.stm_commits") (c "rt.stm_commits" +. c "rt.stm_aborts"));
    m "adapt.demotions" "count" (c "adapt.demotions");
    m "adapt.probes" "count" (c "adapt.probes");
    m "jcc.busy_s" "s" (busy "jcc");
    m "jcc.calls" "count" (c "jcc.calls");
    m "analysis.busy_s" "s" (busy "analysis");
    m "analysis.calls" "count" (c "analysis.calls");
    m "analysis.ms_per_function" "ms"
      (1000.0 *. ratio (busy "analysis") (c "analysis.functions"));
    m "profile.busy_s" "s" (busy "profile");
    m "profile.calls" "count" (c "profile.calls");
    m "schedule.busy_s" "s" (busy "schedule");
    m "schedule.bytes" "bytes" (c "schedule.bytes");
    m "verify.busy_s" "s" (busy "verify");
    m "verify.calls" "count" (c "verify.calls");
    m "verify.findings" "count" (c "verify.findings");
    m "verify.demoted_loops" "count" (c "verify.demoted");
    m "store.hit_rate" "share"
      (ratio
         (c "store.mem_hits" +. c "store.disk_hits")
         (c "store.mem_hits" +. c "store.disk_hits" +. c "store.misses"));
    m "store.mem_hits" "count" (c "store.mem_hits");
    m "store.disk_hits" "count" (c "store.disk_hits");
    m "store.misses" "count" (c "store.misses");
    m "store.disk_errors" "count" (c "store.disk_errors");
    x "served.overhead_ms" "ms";
    m "served.errors" "count" (c "served.errors");
    x "pgo.ingest_ms" "ms";
    m "pgo.store_errors" "count" (c "pgo.store_errors");
    x "fuzz.gen_ms" "ms";
    x "fuzz.oracle_busy_s" "s";
    x "fuzz.skip_share" "share";
    m "gc.minor_words_per_kinsn" "words/kinsn"
      (1000.0
       *. ratio (c "gc.minor_words")
            (c "vm.icount" +. c "dbm.icount" +. c "runtime.icount"));
    m "gc.major_collections" "count" (c "gc.major_collections");
    x "trace.overhead_pct" "%";
    m "trace.attributed_share" "share" (Trace.attributed_share t) ]

(* Self time per layer as a share of the operations' wall-clock, for the
   printed ledger. *)
let shares t =
  let total = Trace.busy t "op" in
  List.map (fun (l, s) -> (l, s, ratio s total)) (Trace.self_times ~ops_only:true t)
