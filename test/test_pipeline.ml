(* Tests for the staged pipeline's artifact store: warm (cached) runs
   must be bit-identical to cold runs, execute-stage parameters must
   not enter static cache keys, and the domain-parallel evaluation
   harness must produce the same rows as a sequential one. *)

open Janus_core
module Pool = Janus_pool.Pool
module Jcc = Janus_jcc.Jcc
module Obs = Janus_obs.Obs

let kernel =
  "double x[4096]; double y[4096];\n\
   int main() {\n\
   \  for (int i = 0; i < 4096; i++) { x[i] = (double)(i % 23); }\n\
   \  for (int i = 0; i < 4096; i++) { y[i] = x[i] * 1.5 + 2.0; }\n\
   \  double s = 0.0;\n\
   \  for (int i = 0; i < 4096; i++) { s += y[i]; }\n\
   \  print_float(s);\n\
   \  return 0;\n\
   }"

(* everything in a result except the metrics registry (a fresh [Obs.t]
   per run, never structurally comparable) *)
let comparable (r : Janus.result) =
  ( (r.Janus.output, r.Janus.exit_code, r.Janus.cycles, r.Janus.icount),
    (r.Janus.breakdown, r.Janus.stats, r.Janus.schedule_size,
     r.Janus.executable_size),
    (r.Janus.selected_loops, r.Janus.demoted_loops, r.Janus.checks_per_loop,
     r.Janus.stm_commits, r.Janus.stm_aborts, r.Janus.aborted) )

let check_same_result name a b =
  Alcotest.(check bool) name true (comparable a = comparable b)

let test_warm_run_equals_cold_run () =
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  let cold = Janus.parallelise ~store img in
  let misses_after_cold = (Pipeline.cache_stats store).Pipeline.misses in
  let warm = Janus.parallelise ~store img in
  let stats = Pipeline.cache_stats store in
  Alcotest.(check bool) "warm run hit the cache" true
    (stats.Pipeline.hits > 0);
  Alcotest.(check int) "warm run recomputed nothing" misses_after_cold
    stats.Pipeline.misses;
  check_same_result "warm = cold, bit for bit" cold warm;
  Alcotest.(check bool) "the run parallelised something" true
    (cold.Janus.selected_loops <> [])

let test_threads_not_in_static_keys () =
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  let p8 = Janus.prepare ~cfg:(Janus.config ~threads:8 ()) ~store img in
  let misses = (Pipeline.cache_stats store).Pipeline.misses in
  (* thread count (and tracing) are execute-stage parameters: sweeping
     them must reuse every static artifact, as fig8/fig9 do *)
  let p2 =
    Janus.prepare ~cfg:(Janus.config ~threads:2 ~trace:true ()) ~store img
  in
  let stats = Pipeline.cache_stats store in
  Alcotest.(check int) "no new misses across a thread sweep" misses
    stats.Pipeline.misses;
  Alcotest.(check bool) "the sweep hit the cache" true
    (stats.Pipeline.hits > 0);
  Alcotest.(check bool) "same schedule object" true
    (p8.Janus.p_schedule == p2.Janus.p_schedule)

let test_selection_fields_are_in_schedule_key () =
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  let full = Janus.prepare ~cfg:(Janus.config ()) ~store img in
  let static_only =
    Janus.prepare
      ~cfg:(Janus.config ~use_profile:false ~use_checks:false ())
      ~store img
  in
  (* different selection inputs must not collide on one cached schedule;
     the analysis itself is still shared *)
  Alcotest.(check bool) "distinct schedules" true
    (full.Janus.p_schedule != static_only.Janus.p_schedule);
  Alcotest.(check bool) "analysis shared" true
    (full.Janus.p_analysis == static_only.Janus.p_analysis)

let test_disabled_store_never_caches () =
  let store = Pipeline.store ~enabled:false () in
  let img = Pipeline.compile ~store kernel in
  let a = Janus.parallelise ~store img in
  let b = Janus.parallelise ~store img in
  let stats = Pipeline.cache_stats store in
  Alcotest.(check int) "no hits" 0 stats.Pipeline.hits;
  Alcotest.(check bool) "misses counted" true (stats.Pipeline.misses > 0);
  check_same_result "recomputed artifacts are deterministic" a b

let test_compile_key_includes_options () =
  let store = Pipeline.store () in
  let img1 = Pipeline.compile ~store kernel in
  let img2 = Pipeline.compile ~store kernel in
  Alcotest.(check bool) "same options hit" true (img1 == img2);
  let o2 =
    Pipeline.compile ~store ~options:{ Jcc.default_options with opt = 2 }
      kernel
  in
  Alcotest.(check bool) "different options miss" true (img1 != o2)

let test_publish_metrics_counters () =
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  ignore (Janus.prepare ~store img);
  ignore (Janus.prepare ~store img);
  let obs = Obs.create () in
  Pipeline.publish_metrics store obs;
  let c = Obs.counter obs in
  let stats = Pipeline.cache_stats store in
  Alcotest.(check int) "pipeline.cache.hits" stats.Pipeline.hits
    (c "pipeline.cache.hits");
  Alcotest.(check int) "pipeline.cache.misses" stats.Pipeline.misses
    (c "pipeline.cache.misses");
  Alcotest.(check int) "per-kind counters sum to the total"
    (c "pipeline.cache.hits")
    (c "pipeline.cache.image.hits" + c "pipeline.cache.analysis.hits"
     + c "pipeline.cache.coverage.hits" + c "pipeline.cache.deps.hits"
     + c "pipeline.cache.schedule.hits" + c "pipeline.cache.verified.hits")

(* ---- the persistent layer ---- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "janus-store-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let schedule_bytes (p : Janus.prepared) =
  Bytes.to_string (Janus_schedule.Schedule.to_bytes p.Janus.p_schedule)

let test_persistent_round_trip () =
  let dir = fresh_dir () in
  (* cold process: compute and publish to disk *)
  let s1 = Pipeline.store ~dir () in
  let img = Pipeline.compile ~store:s1 kernel in
  let p1 = Janus.prepare ~store:s1 img in
  (* fresh store over the same directory = a restarted process with an
     empty memory layer: everything must come back from disk, and come
     back byte-identical *)
  let s2 = Pipeline.store ~dir () in
  let img2 = Pipeline.compile ~store:s2 kernel in
  let p2 = Janus.prepare ~store:s2 img2 in
  let stats = Pipeline.cache_stats s2 in
  Alcotest.(check int) "warm restart recomputed nothing" 0
    stats.Pipeline.misses;
  Alcotest.(check bool) "warm restart hit" true (stats.Pipeline.hits > 0);
  let disk_hits =
    List.fold_left
      (fun a (k : Pipeline.kind_stat) -> a + k.Pipeline.k_disk_hits)
      0 (Pipeline.kind_stats s2)
  in
  Alcotest.(check bool) "hits came from disk" true (disk_hits > 0);
  Alcotest.(check string) "schedule byte-identical across processes"
    (schedule_bytes p1) (schedule_bytes p2);
  Alcotest.(check string) "image byte-identical across processes"
    (Bytes.to_string (Janus_vx.Image.to_bytes img))
    (Bytes.to_string (Janus_vx.Image.to_bytes img2))

let test_corrupt_entry_is_miss () =
  let dir = fresh_dir () in
  let s1 = Pipeline.store ~dir () in
  let img = Pipeline.compile ~store:s1 kernel in
  let p1 = Janus.prepare ~store:s1 img in
  (* vandalise the on-disk layer: truncate one entry, fill another with
     garbage — loads must degrade to misses, never crash or return a
     wrong artifact *)
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jart")
    |> List.sort compare
  in
  (match entries with
   | a :: b :: _ ->
     let truncate path =
       let n = (Unix.stat path).Unix.st_size in
       Unix.truncate path (n / 2)
     in
     truncate (Filename.concat dir a);
     let oc = open_out_bin (Filename.concat dir b) in
     output_string oc "this is not an artifact";
     close_out oc
   | _ -> Alcotest.fail "expected at least two persisted entries");
  let s2 = Pipeline.store ~dir () in
  let img2 = Pipeline.compile ~store:s2 kernel in
  let p2 = Janus.prepare ~store:s2 img2 in
  Alcotest.(check string) "recomputed result identical"
    (schedule_bytes p1) (schedule_bytes p2);
  let stats2 = Pipeline.cache_stats s2 in
  Alcotest.(check bool) "corrupt entries recomputed" true
    (stats2.Pipeline.misses > 0);
  let disk_errors =
    List.fold_left
      (fun a (k : Pipeline.kind_stat) -> a + k.Pipeline.k_disk_errors)
      0 (Pipeline.kind_stats s2)
  in
  Alcotest.(check int) "both vandalised entries detected" 2 disk_errors;
  (* the recomputation overwrote the bad entries: a third store is
     fully warm again *)
  let s3 = Pipeline.store ~dir () in
  ignore (Janus.prepare ~store:s3 (Pipeline.compile ~store:s3 kernel));
  Alcotest.(check int) "repaired store is warm" 0
    (Pipeline.cache_stats s3).Pipeline.misses

let test_concurrent_writers_no_torn_entry () =
  let dir = fresh_dir () in
  (* two domains race whole pipelines over separate stores sharing one
     directory: atomic temp+rename publication means a reader can never
     observe a half-written entry, whoever wins each rename *)
  let run () =
    let s = Pipeline.store ~dir () in
    let img = Pipeline.compile ~store:s kernel in
    schedule_bytes (Janus.prepare ~store:s img)
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let b1 = Domain.join d1 and b2 = Domain.join d2 in
  Alcotest.(check string) "racing writers agree" b1 b2;
  let s = Pipeline.store ~dir () in
  let img = Pipeline.compile ~store:s kernel in
  let b3 = schedule_bytes (Janus.prepare ~store:s img) in
  Alcotest.(check int) "surviving entries all load" 0
    (Pipeline.cache_stats s).Pipeline.misses;
  Alcotest.(check string) "surviving entries byte-identical" b1 b3

let test_disk_counters_published () =
  let dir = fresh_dir () in
  let s1 = Pipeline.store ~dir () in
  ignore (Janus.prepare ~store:s1 (Pipeline.compile ~store:s1 kernel));
  let s2 = Pipeline.store ~dir () in
  ignore (Janus.prepare ~store:s2 (Pipeline.compile ~store:s2 kernel));
  let obs = Obs.create () in
  Pipeline.publish_metrics s2 obs;
  let c = Obs.counter obs in
  let per_kind = Pipeline.kind_stats s2 in
  let sum f = List.fold_left (fun a k -> a + f k) 0 per_kind in
  Alcotest.(check int) "pipeline.cache.disk.hits"
    (sum (fun (k : Pipeline.kind_stat) -> k.Pipeline.k_disk_hits))
    (c "pipeline.cache.disk.hits");
  Alcotest.(check int) "pipeline.cache.disk.errors"
    (sum (fun (k : Pipeline.kind_stat) -> k.Pipeline.k_disk_errors))
    (c "pipeline.cache.disk.errors");
  Alcotest.(check bool) "disk hits visible" true
    (c "pipeline.cache.disk.hits" > 0);
  Alcotest.(check int) "total hits include disk hits"
    (Pipeline.cache_stats s2).Pipeline.hits
    (c "pipeline.cache.hits")

(* ---- the checked-file envelope ---- *)

(* [f] on a fresh directory, removed with its contents afterwards *)
let with_temp_dir f =
  let dir = Filename.temp_file "janus-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let read_entry path = In_channel.with_open_bin path In_channel.input_all

let only_entry dir prefix =
  match
    List.filter (String.starts_with ~prefix) (Array.to_list (Sys.readdir dir))
  with
  | [ e ] -> Filename.concat dir e
  | es ->
    Alcotest.failf "expected one %s entry, found %d" prefix (List.length es)

let image_stat store =
  List.find
    (fun (k : Pipeline.kind_stat) -> k.Pipeline.k_kind = "image")
    (Pipeline.kind_stats store)

(* The layout of a .jart entry, pinned byte for byte; then a real entry
   on disk, read back through the envelope with the store's magic and
   this build's stamp. *)
let test_jart_envelope_golden () =
  Alcotest.(check string) "envelope layout"
    "JART1\nf00d\nschedule\nk|fuel=9\nec99d2599fa990eb070ef49d9df5bf36\n9\n\
     payload\n\000"
    (Envelope.encode ~magic:"JART1" ~version:"f00d" [ "schedule"; "k|fuel=9" ]
       "payload\n\000");
  with_temp_dir (fun dir ->
      let img = Pipeline.compile ~store:(Pipeline.store ~dir ()) kernel in
      match
        Envelope.decode ~magic:"JART1" ~version:Build_id.id ~fields:2
          (read_entry (only_entry dir "image-"))
      with
      | Ok ([ kind; _key ], payload) ->
        Alcotest.(check string) "kind field" "image" kind;
        Alcotest.(check string) "payload is the image codec's bytes"
          (Bytes.to_string (Janus_vx.Image.to_bytes img)) payload
      | Ok _ | Error _ -> Alcotest.fail "the image entry does not decode")

(* An entry another build wrote is an ordinary miss, not a disk error:
   its payload may Marshal types this build does not have. The entry is
   restamped with the release version, which does not follow the
   sources and so cannot tell two builds of one release apart. *)
let test_other_build_entry_is_miss () =
  with_temp_dir (fun dir ->
      ignore (Pipeline.compile ~store:(Pipeline.store ~dir ()) kernel);
      let entry = only_entry dir "image-" in
      let lines () = String.split_on_char '\n' (read_entry entry) in
      (match lines () with
       | magic :: _ :: rest ->
         Out_channel.with_open_bin entry (fun oc ->
             Out_channel.output_string oc
               (String.concat "\n" (magic :: Version.version :: rest)))
       | _ -> Alcotest.fail "short entry");
      let s2 = Pipeline.store ~dir () in
      ignore (Pipeline.compile ~store:s2 kernel);
      let k2 = image_stat s2 in
      Alcotest.(check (triple int int int))
        "a miss, no disk error, no disk hit" (1, 0, 0)
        (k2.Pipeline.k_misses, k2.Pipeline.k_disk_errors,
         k2.Pipeline.k_disk_hits);
      Alcotest.(check string) "recomputed entry carries this build's stamp"
        Build_id.id (List.nth (lines ()) 1);
      let s3 = Pipeline.store ~dir () in
      ignore (Pipeline.compile ~store:s3 kernel);
      Alcotest.(check (pair int int)) "overwritten entry loads" (0, 1)
        ((image_stat s3).Pipeline.k_misses,
         (image_stat s3).Pipeline.k_disk_hits))

(* header lines: any bytes but a newline *)
let gen_line =
  QCheck2.Gen.(
    map (String.map (fun c -> if c = '\n' then ' ' else c))
      (string_size (int_range 0 12)))

let gen_envelope =
  QCheck2.Gen.(
    quad gen_line gen_line
      (list_size (int_range 0 3) gen_line)
      (string_size (int_range 0 64)))

let print_envelope (magic, version, fields, payload) =
  Printf.sprintf "magic=%S version=%S fields=[%s] payload=%S" magic version
    (String.concat "; " (List.map (Printf.sprintf "%S") fields))
    payload

let prop_envelope_round_trip =
  QCheck2.Test.make ~count:300 ~name:"envelope decode inverts encode"
    ~print:print_envelope gen_envelope
    (fun (magic, version, fields, payload) ->
       Envelope.decode ~magic ~version ~fields:(List.length fields)
         (Envelope.encode ~magic ~version fields payload)
       = Ok (fields, payload))

(* every strict prefix of [s] *)
let truncations s = List.init (String.length s) (fun n -> String.sub s 0 n)

(* [s] with each byte in turn xored with [mask] (1..255) *)
let mutations ~mask s =
  List.init (String.length s) (fun i ->
      String.mapi
        (fun j c -> if i = j then Char.chr (Char.code c lxor mask) else c)
        s)

let prop_envelope_decode_total =
  QCheck2.Test.make ~count:100
    ~name:"envelope decode is total under truncation and mutation"
    ~print:(fun (e, mask) ->
        Printf.sprintf "%s mask=%d" (print_envelope e) mask)
    QCheck2.Gen.(pair gen_envelope (int_range 1 255))
    (fun ((magic, version, fields, payload), mask) ->
       let decode s =
         Envelope.decode ~magic ~version ~fields:(List.length fields) s
       in
       let good = Envelope.encode ~magic ~version fields payload in
       List.for_all (fun s -> Result.is_error (decode s)) (truncations good)
       && List.for_all
            (fun s -> match decode s with Ok _ | Error _ -> true)
            (mutations ~mask good))

(* ---- the verified artifact ---- *)

module Verify = Janus_verify.Verify
module Schedule = Janus_schedule.Schedule
module Suite = Janus_suite.Suite

let verdict (s, demoted, findings) =
  ( Bytes.to_string (Schedule.to_bytes s),
    demoted,
    List.map (Fmt.str "%a" Verify.pp_finding) findings )

let verdict_t = Alcotest.(triple string (list int) (list string))

let verified_stat store =
  List.find
    (fun (k : Pipeline.kind_stat) -> k.Pipeline.k_kind = "verified")
    (Pipeline.kind_stats store)

(* (name, image, schedule): suite schedules of three shapes (DOALL,
   DOACROSS, fission) and the verifier tests' two corruptions *)
let verify_cases () =
  let suite name cfg =
    let b = Suite.find_exn name in
    let img = Suite.compile b in
    let p =
      Janus.prepare ~cfg ~train_input:(Suite.train_input b)
        ~store:(Pipeline.store ()) img
    in
    (name, img, p.Janus.p_schedule)
  in
  let p = Lazy.force Test_verify.prepared in
  let _, demoting = Test_verify.without_loop_finish p.Janus.p_schedule in
  [ suite "470.lbm" (Janus.config ());
    suite "482.sphinx3" (Janus.config ~use_doacross:true ());
    suite "adv.fission" (Janus.config ~fission:true ());
    ("a loop demoted", p.Janus.p_image, demoting);
    ("every rule dropped", p.Janus.p_image,
     Test_verify.with_dangling_update_bound p.Janus.p_schedule) ]

let test_verified_equals_lint () =
  let dir = fresh_dir () in
  let cases = verify_cases () in
  let n = List.length cases in
  let check what store =
    List.iter
      (fun (name, img, sched) ->
         Alcotest.check verdict_t (name ^ ", " ^ what)
           (verdict (Verify.check_and_demote img sched))
           (verdict (Pipeline.verify ~store img sched)))
      cases
  in
  let s1 = Pipeline.store ~dir () in
  check "cold" s1;
  check "warm from memory" s1;
  let k1 = verified_stat s1 in
  Alcotest.(check (pair int int)) "one miss, then one memory hit, per case"
    (n, n) (k1.Pipeline.k_misses, k1.Pipeline.k_mem_hits);
  let s2 = Pipeline.store ~dir () in
  check "warm from disk" s2;
  let k2 = verified_stat s2 in
  Alcotest.(check (pair int int)) "a fresh store over the directory hits disk"
    (0, n) (k2.Pipeline.k_misses, k2.Pipeline.k_disk_hits);
  (* the corruptions exercise both demotion paths *)
  let outcome name =
    let _, img, sched = List.find (fun (m, _, _) -> m = name) cases in
    let s, demoted, _ = Pipeline.verify ~store:s2 img sched in
    (s.Schedule.rules <> [], demoted <> [])
  in
  Alcotest.(check (pair bool bool)) "one loop demoted, the rest kept"
    (true, true) (outcome "a loop demoted");
  Alcotest.(check (pair bool bool)) "unattributed error empties the rules"
    (false, true) (outcome "every rule dropped")

(* [Verify.version] keys persisted verdicts, so a lint change that
   leaves it alone keeps serving stale verdicts from every store
   directory. Pin it together with a digest of the verdicts on every
   suite schedule and the cases above: a change to any finding or
   demotion fails here until the version and the digest move together.
   A change to the schedules themselves moves the digest too; bumping
   the version then costs one cold verdict cache, nothing more. *)
let test_verify_version_pins_verdicts () =
  let store = Pipeline.store () in
  let suite_case (b : Suite.benchmark) =
    let img = Suite.compile b in
    let p = Janus.prepare ~train_input:(Suite.train_input b) ~store img in
    (b.Suite.name, img, p.Janus.p_schedule)
  in
  let cases =
    List.map suite_case
      (Suite.all @ Suite.adversarial @ [ Suite.find_exn "adv.fission" ])
    @ verify_cases ()
  in
  let rendered =
    List.map
      (fun (name, img, sched) ->
         let bytes, demoted, findings =
           verdict (Verify.check_and_demote img sched)
         in
         String.concat "\n"
           ((name :: Digest.to_hex (Digest.string bytes)
             :: List.map string_of_int demoted)
            @ findings))
      cases
  in
  let digest = Digest.to_hex (Digest.string (String.concat "\n\n" rendered)) in
  Alcotest.(check (pair string string))
    "Verify.version moves with the verdicts"
    ("1", "a93394291ae73619a77aa08b92c9780c") (Verify.version, digest)

let test_corrupt_verified_entry_recomputed () =
  let dir = fresh_dir () in
  let p = Lazy.force Test_verify.prepared in
  let img = p.Janus.p_image and sched = p.Janus.p_schedule in
  let cold =
    verdict (Pipeline.verify ~store:(Pipeline.store ~dir ()) img sched)
  in
  let entry = only_entry dir "verified-" in
  let oc = open_out_bin entry in
  output_string oc "this is not a verdict";
  close_out oc;
  let s2 = Pipeline.store ~dir () in
  Alcotest.check verdict_t "recomputed verdict identical" cold
    (verdict (Pipeline.verify ~store:s2 img sched));
  let k2 = verified_stat s2 in
  Alcotest.(check (triple int int int)) "one disk error, one recomputation"
    (1, 1, 0)
    (k2.Pipeline.k_disk_errors, k2.Pipeline.k_misses, k2.Pipeline.k_disk_hits);
  (* the recomputation rewrote the entry *)
  let s3 = Pipeline.store ~dir () in
  ignore (Pipeline.verify ~store:s3 img sched);
  let k3 = verified_stat s3 in
  Alcotest.(check (pair int int)) "rewritten entry loads" (0, 1)
    (k3.Pipeline.k_misses, k3.Pipeline.k_disk_hits)

let test_verified_keyed_by_schedule_bytes () =
  let store = Pipeline.store () in
  let p = Lazy.force Test_verify.prepared in
  let img = p.Janus.p_image and sched = p.Janus.p_schedule in
  ignore (Pipeline.verify ~store img sched);
  ignore
    (Pipeline.verify ~store img (Test_verify.with_dangling_update_bound sched));
  Alcotest.(check int) "another schedule on the same image misses" 2
    (verified_stat store).Pipeline.k_misses;
  (* a decoded copy is the same bytes, so the same verdict *)
  ignore
    (Pipeline.verify ~store img (Schedule.of_bytes (Schedule.to_bytes sched)));
  let k = verified_stat store in
  Alcotest.(check (pair int int)) "byte-equal schedule hits" (2, 1)
    (k.Pipeline.k_misses, k.Pipeline.k_mem_hits)

let test_thread_sweep_verifies_once () =
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  let p = Janus.prepare ~store img in
  List.iter
    (fun threads ->
       ignore (Janus.run_parallel ~cfg:(Janus.config ~threads ()) ~store p))
    [ 1; 2; 4; 8 ];
  let k = verified_stat store in
  Alcotest.(check (pair int int)) "verified once, then three hits" (1, 3)
    (k.Pipeline.k_misses, k.Pipeline.k_mem_hits + k.Pipeline.k_disk_hits)

(* ---- function-level sharding ---- *)

let test_sharded_analysis_identical () =
  let module Analysis = Janus_analysis.Analysis in
  let img = Pipeline.compile ~store:(Pipeline.store ()) kernel in
  let seq = Analysis.analyse_image img in
  let par =
    Pool.with_pool ~jobs:4 (fun pool -> Analysis.analyse_image ~pool img)
  in
  Alcotest.(check string) "summaries identical"
    (Fmt.str "%a" Analysis.pp_summary seq)
    (Fmt.str "%a" Analysis.pp_summary par);
  Alcotest.(check string) "whole analysis structurally identical"
    (Digest.to_hex (Digest.bytes (Marshal.to_bytes seq [])))
    (Digest.to_hex (Digest.bytes (Marshal.to_bytes par [])))

let test_sharded_verifier_identical () =
  let module Verify = Janus_verify.Verify in
  let store = Pipeline.store () in
  let img = Pipeline.compile ~store kernel in
  let p = Janus.prepare ~store img in
  let render fs = String.concat "\n" (List.map (Fmt.str "%a" Verify.pp_finding) fs) in
  let seq = Verify.lint img p.Janus.p_schedule in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Verify.lint ~pool img p.Janus.p_schedule)
  in
  Alcotest.(check string) "findings identical and in the same order"
    (render seq) (render par)

(* the in-process analogue of CI's `janus_eval all --jobs 1` vs
   `--jobs 4` byte-diff, on the cheapest experiment that touches every
   benchmark: rows and rendered text must match exactly *)
let test_parallel_harness_matches_sequential () =
  let seq = Eval.table1 ~ctx:(Eval.ctx ~store:(Pipeline.store ()) ()) () in
  let par =
    Pool.with_pool ~jobs:3 (fun pool ->
        Eval.table1 ~ctx:(Eval.ctx ~store:(Pipeline.store ()) ~pool ()) ())
  in
  Alcotest.(check bool) "rows identical" true (seq = par);
  Alcotest.(check string) "rendered output identical"
    (Fmt.str "%a" Eval.pp_table1 seq)
    (Fmt.str "%a" Eval.pp_table1 par)

let tests =
  [
    Alcotest.test_case "warm run equals cold run" `Quick
      test_warm_run_equals_cold_run;
    Alcotest.test_case "threads stay out of static keys" `Quick
      test_threads_not_in_static_keys;
    Alcotest.test_case "selection fields key the schedule" `Quick
      test_selection_fields_are_in_schedule_key;
    Alcotest.test_case "disabled store never caches" `Quick
      test_disabled_store_never_caches;
    Alcotest.test_case "compile key includes options" `Quick
      test_compile_key_includes_options;
    Alcotest.test_case "publish_metrics matches cache_stats" `Quick
      test_publish_metrics_counters;
    Alcotest.test_case "parallel harness = sequential harness" `Quick
      test_parallel_harness_matches_sequential;
    Alcotest.test_case "persistent store round-trips across processes" `Quick
      test_persistent_round_trip;
    Alcotest.test_case "corrupt disk entry is a miss, not a crash" `Quick
      test_corrupt_entry_is_miss;
    Alcotest.test_case "concurrent writers never tear an entry" `Quick
      test_concurrent_writers_no_torn_entry;
    Alcotest.test_case "disk counters published to obs" `Quick
      test_disk_counters_published;
    Alcotest.test_case ".jart envelope layout pinned" `Quick
      test_jart_envelope_golden;
    Alcotest.test_case "entry from another build is a miss" `Quick
      test_other_build_entry_is_miss;
    QCheck_alcotest.to_alcotest prop_envelope_round_trip;
    QCheck_alcotest.to_alcotest prop_envelope_decode_total;
    Alcotest.test_case "verified artifact equals the lint" `Quick
      test_verified_equals_lint;
    Alcotest.test_case "verify version pins the verdicts" `Quick
      test_verify_version_pins_verdicts;
    Alcotest.test_case "corrupt verified entry is recomputed" `Quick
      test_corrupt_verified_entry_recomputed;
    Alcotest.test_case "verified keyed by schedule bytes" `Quick
      test_verified_keyed_by_schedule_bytes;
    Alcotest.test_case "thread sweep verifies once" `Quick
      test_thread_sweep_verifies_once;
    Alcotest.test_case "sharded analysis identical to sequential" `Quick
      test_sharded_analysis_identical;
    Alcotest.test_case "sharded verifier identical to sequential" `Quick
      test_sharded_verifier_identical;
  ]
