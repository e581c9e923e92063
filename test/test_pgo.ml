(* Tests for lib/pgo: the .jprof codec round-trips; merge is a
   commutative, associative, idempotent set union; corrupt store files
   are counted, treated as absent and repaired by the next save; prune
   respects age/byte bounds and never deletes this process's own
   writes; fleet evidence flips a selection verdict end-to-end; and the
   daemon ingests uploads and keeps serving the aggregate across a
   restart. *)

module Pgo = Janus_pgo.Pgo
module Pipeline = Janus_core.Pipeline
module Envelope = Janus_core.Envelope
module Janus = Janus_core.Janus
module Adapt = Janus_adapt.Adapt
module Profiler = Janus_profile.Profiler
module Served = Janus_served_lib.Served

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_ledger =
  let open QCheck2.Gen in
  let* l_lid = int_range 0 24 in
  let* l_self_insns = int_range 0 100_000 in
  let* l_invocations = int_range 0 1_000 in
  let* l_iterations = int_range 0 100_000 in
  let* l_observed = bool in
  let* l_dep = bool in
  let* l_checks_passed = int_range 0 500 in
  let* l_checks_failed = int_range 0 500 in
  let* l_commits = int_range 0 500 in
  let* l_aborts = int_range 0 500 in
  let* l_fallbacks = int_range 0 500 in
  let* l_par_work = int_range 0 1_000_000 in
  let* l_par_cost = int_range 0 1_000_000 in
  let* l_demotions = int_range 0 9 in
  let* l_promotions = int_range 0 9 in
  let+ l_sampled_dep = bool in
  {
    Pgo.l_lid; l_self_insns; l_invocations; l_iterations; l_observed;
    l_dep; l_checks_passed; l_checks_failed; l_commits; l_aborts;
    l_fallbacks; l_par_work; l_par_cost; l_demotions; l_promotions;
    l_sampled_dep;
  }

let gen_run =
  let open QCheck2.Gen in
  let* source = oneofl [ Pgo.Training; Pgo.Fleet; Pgo.Governed ] in
  let* input = oneofl [ ""; "4"; "250"; "10,20" ] in
  let* total_insns = int_range 0 10_000_000 in
  let+ loops = list_size (int_range 0 8) gen_ledger in
  Pgo.make_run ~source ~input ~total_insns loops

let gen_profile_for image =
  let open QCheck2.Gen in
  let+ runs = list_size (int_range 0 6) gen_run in
  List.fold_left Pgo.add (Pgo.empty image) runs

let gen_profile =
  let open QCheck2.Gen in
  let* image = int_range 0 0xffffff >|= Printf.sprintf "%08x" in
  gen_profile_for image

(* ------------------------------------------------------------------ *)
(* Codec and merge properties *)

let prop_roundtrip =
  QCheck2.Test.make ~count:100 ~name:".jprof round-trips" gen_profile
    (fun p -> Pgo.equal p (Pgo.of_bytes (Pgo.to_bytes p)))

let prop_merge_commutative =
  QCheck2.Test.make ~count:100 ~name:"merge is commutative"
    QCheck2.Gen.(pair (gen_profile_for "deadbeef") (gen_profile_for "deadbeef"))
    (fun (a, b) -> Pgo.equal (Pgo.merge a b) (Pgo.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~count:100 ~name:"merge is associative"
    QCheck2.Gen.(
      triple (gen_profile_for "deadbeef") (gen_profile_for "deadbeef")
        (gen_profile_for "deadbeef"))
    (fun (a, b, c) ->
      Pgo.equal
        (Pgo.merge a (Pgo.merge b c))
        (Pgo.merge (Pgo.merge a b) c))

let prop_merge_idempotent =
  QCheck2.Test.make ~count:100 ~name:"merge is idempotent"
    (gen_profile_for "deadbeef")
    (fun p -> Pgo.equal p (Pgo.merge p p))

let prop_generation_content_keyed =
  QCheck2.Test.make ~count:100
    ~name:"equal profiles have equal generations; re-merge keeps them"
    QCheck2.Gen.(pair (gen_profile_for "deadbeef") (gen_profile_for "deadbeef"))
    (fun (a, b) ->
      let m = Pgo.merge a b in
      String.equal (Pgo.generation m) (Pgo.generation (Pgo.merge m a)))

let test_merge_rejects_other_image () =
  let a = Pgo.empty "aaaa" and b = Pgo.empty "bbbb" in
  match Pgo.merge a b with
  | _ -> Alcotest.fail "merge across images must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Corruption: every malformed shape raises Bad_profile *)

let raises_bad_profile what b =
  match Pgo.of_bytes b with
  | _ -> Alcotest.fail (what ^ ": expected Bad_profile")
  | exception Pgo.Bad_profile _ -> ()

let sample_profile () =
  let run =
    Pgo.make_run ~source:Pgo.Fleet ~input:"9" ~total_insns:1234
      [
        {
          Pgo.l_lid = 2; l_self_insns = 100; l_invocations = 3;
          l_iterations = 30; l_observed = true; l_dep = true;
          l_checks_passed = 0; l_checks_failed = 0; l_commits = 0;
          l_aborts = 0; l_fallbacks = 0; l_par_work = 0; l_par_cost = 0;
          l_demotions = 0; l_promotions = 0; l_sampled_dep = false;
        };
      ]
  in
  Pgo.add (Pgo.empty "feedface") run

let test_corrupt_bytes_raise () =
  let good = Pgo.to_bytes (sample_profile ()) in
  raises_bad_profile "truncated"
    (Bytes.sub good 0 (Bytes.length good - 5));
  let flipped = Bytes.copy good in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last
    (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  raises_bad_profile "payload bit-flip" flipped;
  raises_bad_profile "garbage" (Bytes.of_string "not a profile at all");
  let wrong_version =
    let s = Bytes.to_string good in
    let nl = String.index s '\n' in
    let nl2 = String.index_from s (nl + 1) '\n' in
    Bytes.of_string
      (String.sub s 0 (nl + 1) ^ "99.99.99" ^ String.sub s nl2
         (String.length s - nl2))
  in
  raises_bad_profile "wrong version" wrong_version

(* The .jprof bytes are a persisted format: profiles written by an
   earlier build must keep loading, so their encoding never moves. *)
let test_jprof_bytes_pinned () =
  let b = Pgo.to_bytes (sample_profile ()) in
  Alcotest.(check (pair int string)) "length and md5 of the encoding"
    (182, "4e07b17c79691c1b945a3585d8dea99c")
    (Bytes.length b, Digest.to_hex (Digest.bytes b))

(* small profiles, so every truncation and mutation stays cheap *)
let gen_small_profile =
  let open QCheck2.Gen in
  let run =
    let* source = oneofl [ Pgo.Training; Pgo.Fleet; Pgo.Governed ] in
    let* input = oneofl [ ""; "4"; "10,20" ] in
    let* total_insns = int_range 0 10_000_000 in
    let+ loops = list_size (int_range 0 2) gen_ledger in
    Pgo.make_run ~source ~input ~total_insns loops
  in
  let* image = int_range 0 0xffffff >|= Printf.sprintf "%08x" in
  let+ runs = list_size (int_range 0 2) run in
  List.fold_left Pgo.add (Pgo.empty image) runs

(* Every truncation and single-byte mutation of a valid .jprof, and of
   its payload re-wrapped under a matching digest (so the run decoder
   itself reads the damage), either decodes or raises Bad_profile. *)
let prop_of_bytes_only_bad_profile =
  QCheck2.Test.make ~count:100
    ~name:"of_bytes raises only Bad_profile under truncation and mutation"
    QCheck2.Gen.(pair gen_small_profile (int_range 1 255))
    (fun (p, mask) ->
      let decodes s =
        match Pgo.of_bytes (Bytes.of_string s) with
        | _ -> true
        | exception Pgo.Bad_profile _ -> true
      in
      let good = Bytes.to_string (Pgo.to_bytes p) in
      let rewrapped =
        match
          Envelope.decode ~magic:"JPROF1" ~version:Janus_core.Version.version
            ~fields:1 good
        with
        | Ok (fields, payload) ->
          List.map
            (Envelope.encode ~magic:"JPROF1"
               ~version:Janus_core.Version.version fields)
            (Test_pipeline.truncations payload
             @ Test_pipeline.mutations ~mask payload)
        | Error _ -> failwith "a fresh encoding does not decode"
      in
      List.for_all decodes
        (Test_pipeline.truncations good
         @ Test_pipeline.mutations ~mask good
         @ rewrapped))

(* A corrupt store entry is counted, treated exactly as absent, and
   overwritten (repaired) by the next save. *)
let test_store_corruption_is_absence () =
  let dir = Filename.temp_file "janus-pgo" "" in
  Sys.remove dir;
  let store = Pgo.Store.open_ dir in
  let p = sample_profile () in
  ignore (Pgo.Store.save store p);
  let path = Filename.concat dir "feedface.jprof" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "JPROF1\ngarbage follows\n");
  Alcotest.(check (option bool))
    "corrupt entry loads as absent" None
    (Option.map (fun _ -> true) (Pgo.Store.load store ~image:"feedface"));
  Alcotest.(check int) "corruption counted" 1 (Pgo.Store.errors store);
  (* saving over the corrupt file repairs it: the merge starts from
     empty, exactly as if the file had never existed (save's own read
     of the corrupt file counts one more error) *)
  let merged = Pgo.Store.save store p in
  Alcotest.(check int) "repair keeps only the new runs" 1 (Pgo.runs merged);
  let errs_after_save = Pgo.Store.errors store in
  (match Pgo.Store.load store ~image:"feedface" with
  | Some back -> Alcotest.(check bool) "repaired" true (Pgo.equal back merged)
  | None -> Alcotest.fail "store not repaired");
  Alcotest.(check int) "no new errors once repaired" errs_after_save
    (Pgo.Store.errors store)

(* A save that cannot publish raises and leaves no temp file behind. *)
let test_failed_save_leaves_no_temp () =
  Test_pipeline.with_temp_dir (fun dir ->
      let store = Pgo.Store.open_ dir in
      Sys.mkdir (Filename.concat dir "feedface.jprof") 0o755;
      (match Pgo.Store.save store (sample_profile ()) with
      | _ -> Alcotest.fail "publishing over a directory must raise"
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) "no temp file left" []
        (List.filter
           (fun f -> Filename.check_suffix f ".tmp")
           (Array.to_list (Sys.readdir dir))))

(* The image line names the store file, so only a digest may: other
   names are refused before any path is built. *)
let test_store_refuses_non_digest_images () =
  Test_pipeline.with_temp_dir (fun dir ->
      let store = Pgo.Store.open_ dir in
      List.iter
        (fun image ->
          let p =
            Pgo.add (Pgo.empty image)
              (Pgo.make_run ~source:Pgo.Fleet ~input:"1" ~total_insns:1 [])
          in
          (match Pgo.Store.save store p with
          | _ -> Alcotest.failf "saving image %S must be refused" image
          | exception Pgo.Bad_profile _ -> ());
          match Pgo.Store.load store ~image with
          | _ -> Alcotest.failf "loading image %S must be refused" image
          | exception Pgo.Bad_profile _ -> ())
        [ ""; "../escaped"; "FEEDFACE"; "feed/face"; "feedface.jprof" ];
      Alcotest.(check (list string)) "nothing written" []
        (Array.to_list (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Pruning *)

let age_file path seconds_ago =
  let t = Unix.gettimeofday () -. float_of_int seconds_ago in
  Unix.utimes path t t

let test_prune_age_and_liveness () =
  let dir = Filename.temp_file "janus-pgo" "" in
  Sys.remove dir;
  let writer = Pgo.Store.open_ dir in
  ignore (Pgo.Store.save writer (Pgo.add (Pgo.empty "aaaa1111") (Pgo.make_run ~source:Pgo.Fleet ~input:"1" ~total_insns:1 [])));
  ignore (Pgo.Store.save writer (Pgo.add (Pgo.empty "bbbb2222") (Pgo.make_run ~source:Pgo.Fleet ~input:"2" ~total_insns:2 [])));
  age_file (Filename.concat dir "aaaa1111.jprof") 50_000;
  age_file (Filename.concat dir "bbbb2222.jprof") 50_000;
  (* the writing process protects its own entries, however old *)
  Alcotest.(check int) "live entries survive" 0
    (Pgo.Store.prune ~max_age:3600 writer);
  (* a fresh process (empty written-set) prunes them *)
  let reaper = Pgo.Store.open_ dir in
  Alcotest.(check int) "stale entries pruned" 2
    (Pgo.Store.prune ~max_age:3600 reaper);
  Alcotest.(check bool) "files gone" false
    (Sys.file_exists (Filename.concat dir "aaaa1111.jprof"))

let test_prune_bytes_oldest_first () =
  let dir = Filename.temp_file "janus-pgo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let mk name age =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.make 100 'x'));
    age_file path age
  in
  mk "old.jart" 300;
  mk "mid.jart" 200;
  mk "new.jart" 100;
  mk "other.txt" 400;
  (* 300 bytes of .jart; fitting 250 needs exactly the oldest gone,
     and the foreign extension is never touched *)
  let deleted = Envelope.prune_dir ~max_bytes:250 ~exts:[ ".jart" ] dir in
  Alcotest.(check int) "oldest pruned" 1 deleted;
  Alcotest.(check bool) "newest survives" true
    (Sys.file_exists (Filename.concat dir "new.jart"));
  Alcotest.(check bool) "oldest gone" false
    (Sys.file_exists (Filename.concat dir "old.jart"));
  Alcotest.(check bool) "other extensions untouched" true
    (Sys.file_exists (Filename.concat dir "other.txt"));
  (* protect wins over the byte budget *)
  mk "keep.jart" 500;
  let deleted =
    Envelope.prune_dir ~max_bytes:0
      ~protect:(fun p -> Filename.basename p = "keep.jart")
      ~exts:[ ".jart" ] dir
  in
  Alcotest.(check int) "unprotected pruned" 2 deleted;
  Alcotest.(check bool) "protected survives" true
    (Sys.file_exists (Filename.concat dir "keep.jart"))

(* ------------------------------------------------------------------ *)
(* Governor warm start *)

let test_register_suspect_starts_probation () =
  let g = Adapt.create () in
  Adapt.register_suspect g 7;
  Alcotest.(check (option string)) "suspect starts in probation"
    (Some "probation")
    (Option.map Adapt.state_name (Adapt.state g 7));
  Adapt.register g 8 ~profiled:true;
  Alcotest.(check (option string)) "profiled loop starts parallel"
    (Some "parallel")
    (Option.map Adapt.state_name (Adapt.state g 8));
  (* re-registration is a no-op either way round *)
  Adapt.register g 7 ~profiled:true;
  Adapt.register_suspect g 8;
  Alcotest.(check (option string)) "suspect unchanged" (Some "probation")
    (Option.map Adapt.state_name (Adapt.state g 7));
  Alcotest.(check (option string)) "parallel unchanged" (Some "parallel")
    (Option.map Adapt.state_name (Adapt.state g 8))

(* ------------------------------------------------------------------ *)
(* End-to-end: fleet evidence flips a verdict and re-derives the
   schedule *)

(* adv.alias in miniature: call sites are disjoint for the first 4
   invocations, then alias — training at scale 2 sees no dependence,
   a fleet run at scale 12 does *)
let alias_kernel =
  "void kernel(double *src, double *dst, int n) {\n\
   \  for (int i = 0; i < n; i++) {\n\
   \    dst[i + 1] = src[i] * 0.5 + dst[i + 1] * 0.25;\n\
   \  }\n\
   }\n\
   int main() {\n\
   \  int iters = read_int();\n\
   \  int n = 64;\n\
   \  double *a = alloc_double(n + 1);\n\
   \  double *b = alloc_double(n + 1);\n\
   \  for (int i = 0; i <= n; i++) {\n\
   \    a[i] = (double)(i % 7) * 0.25;\n\
   \    b[i] = (double)(i % 5) * 0.5;\n\
   \  }\n\
   \  double acc = 0.0;\n\
   \  for (int t = 0; t < iters; t++) {\n\
   \    if (t < 4) { kernel(a, b, n); } else { kernel(b, b, n); }\n\
   \    acc = acc * 0.5 + b[n] + b[n / 2];\n\
   \  }\n\
   \  print_float(acc);\n\
   \  return 0;\n\
   }"

(* the miniature kernel's per-invocation work (~1k instructions) sits
   below the default 2500-instruction profitability floor; lower it so
   selection is decided by the dependence verdicts under test *)
let test_cfg = Janus.config ~work_threshold:500.0 ()

let with_store f =
  Test_pipeline.with_temp_dir (fun dir -> f (Pgo.Store.open_ dir))

let test_evidence_flips_selection () =
  with_store (fun store ->
      let pstore = Pipeline.store () in
      let img = Pipeline.compile ~store:pstore alias_kernel in
      let image_k = Pipeline.image_key img in
      let baseline = Janus.prepare ~cfg:test_cfg ~train_input:[ 2L ] ~store:pstore img in
      let base_sel =
        List.map
          (fun ((r : Janus.Loopanal.report), _) ->
            r.Janus.Loopanal.loop.Janus_analysis.Looptree.lid)
          baseline.Janus.p_selection.Janus.chosen
      in
      Alcotest.(check bool) "training selects the kernel loop" true
        (base_sel <> []);
      (* one fleet member at the aliasing scale *)
      let merged = Pgo.collect ~store ~input:[ 12L ] img in
      Alcotest.(check int) "one run stored" 1 (Pgo.runs merged);
      (* re-collection is idempotent: the run is content-addressed *)
      let again = Pgo.collect ~store ~input:[ 12L ] img in
      Alcotest.(check int) "re-collection dedups" 1 (Pgo.runs again);
      let ev =
        match Pgo.Store.evidence_for store ~image:image_k with
        | Some e -> e
        | None -> Alcotest.fail "no evidence after collect"
      in
      Alcotest.(check bool) "aggregate flags a dependence" true
        (List.exists
           (fun a -> a.Pgo.a_verdict = Pgo.V_dep)
           (Pgo.aggregate merged));
      let informed =
        Janus.prepare ~cfg:test_cfg ~train_input:[ 2L ] ~evidence:ev
          ~store:pstore img
      in
      let inf_sel =
        List.map
          (fun ((r : Janus.Loopanal.report), _) ->
            r.Janus.Loopanal.loop.Janus_analysis.Looptree.lid)
          informed.Janus.p_selection.Janus.chosen
      in
      Alcotest.(check bool) "evidence deselects the aliasing loop" true
        (List.length inf_sel < List.length base_sel);
      (* the informed schedule still computes the right answer *)
      let native = Janus.run_native ~input:[ 12L ] img in
      let run = Janus.run_parallel ~cfg:test_cfg ~input:[ 12L ] informed in
      Alcotest.(check string) "output matches native"
        native.Janus.output run.Janus.output;
      (* same evidence twice: the generation-keyed schedule is cached *)
      let before = (Pipeline.cache_stats pstore).Pipeline.misses in
      let again =
        Janus.prepare ~cfg:test_cfg ~train_input:[ 2L ] ~evidence:ev
          ~store:pstore img
      in
      Alcotest.(check int) "same generation hits the schedule cache" before
        (Pipeline.cache_stats pstore).Pipeline.misses;
      Alcotest.(check string) "cached schedule byte-identical"
        (Bytes.to_string
           (Janus.Schedule.to_bytes informed.Janus.p_schedule))
        (Bytes.to_string (Janus.Schedule.to_bytes again.Janus.p_schedule)))

let test_iterate_converges () =
  with_store (fun store ->
      let img =
        Pipeline.compile ~store:(Pipeline.store ~enabled:false ()) alias_kernel
      in
      let outcome =
        Pgo.Iterate.run ~cfg:test_cfg ~max_rounds:4 ~store ~train_input:[ 2L ]
          ~fleet:[ [ 12L ] ] ~input:[ 12L ] img
      in
      Alcotest.(check bool) "converged" true outcome.Pgo.Iterate.o_converged;
      Alcotest.(check bool) "at least two rounds" true
        (List.length outcome.Pgo.Iterate.o_rounds >= 2);
      let round1 = List.nth outcome.Pgo.Iterate.o_rounds 1 in
      Alcotest.(check bool) "round 1 flipped a verdict" true
        (round1.Pgo.Iterate.rd_flipped <> []);
      let round0 = List.hd outcome.Pgo.Iterate.o_rounds in
      Alcotest.(check bool) "round 1 re-derived the schedule" true
        (not
           (String.equal round0.Pgo.Iterate.rd_schedule_md5
              round1.Pgo.Iterate.rd_schedule_md5)))

(* ------------------------------------------------------------------ *)
(* Daemon: upload, evidence-fed answers, restart *)

let test_daemon_upload_and_restart () =
  let profile_dir = Filename.temp_file "janus-pgo" "" in
  Sys.remove profile_dir;
  let img =
    Pipeline.compile ~store:(Pipeline.store ~enabled:false ()) alias_kernel
  in
  (* the fleet member's profile, serialised exactly as a remote
     producer would ship it *)
  let payload =
    with_store (fun tmp ->
        Pgo.to_bytes (Pgo.collect ~store:tmp ~input:[ 12L ] img))
  in
  let first_reply = ref None in
  Test_served.with_server ~profile_dir (fun socket ->
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let before = Served.schedule c ~cfg:test_cfg ~train_input:[ 2L ] img in
          Alcotest.(check string) "no evidence before upload" ""
            before.Served.s_generation;
          let up = Served.upload c payload in
          Alcotest.(check int) "one run ingested" 1 up.Served.u_runs;
          Alcotest.(check int) "one run stored" 1 up.Served.u_total_runs;
          let after = Served.schedule c ~cfg:test_cfg ~train_input:[ 2L ] img in
          Alcotest.(check bool) "evidence-fed answer carries a generation"
            true
            (after.Served.s_generation <> "");
          Alcotest.(check bool) "evidence changed the schedule" true
            (not
               (Bytes.equal before.Served.s_schedule after.Served.s_schedule));
          first_reply := Some after;
          let m = Served.metrics c in
          let count name =
            match List.assoc_opt name m with Some v -> v | None -> 0
          in
          Alcotest.(check int) "pgo.ingested counted" 1 (count "pgo.ingested");
          Alcotest.(check int) "pgo.runs counted" 1 (count "pgo.runs");
          Alcotest.(check int) "pgo.store.errors clean" 0
            (count "pgo.store.errors")));
  (* a restarted daemon (fresh pipeline store) answers from the same
     aggregate: byte-identical schedule, same generation *)
  Test_served.with_server ~profile_dir (fun socket ->
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let again = Served.schedule c ~cfg:test_cfg ~train_input:[ 2L ] img in
          match !first_reply with
          | None -> Alcotest.fail "first run recorded no reply"
          | Some first ->
            Alcotest.(check string) "restart serves the merged schedule"
              (Bytes.to_string first.Served.s_schedule)
              (Bytes.to_string again.Served.s_schedule);
            Alcotest.(check string) "same generation"
              first.Served.s_generation again.Served.s_generation))

let test_daemon_refuses_upload_without_store () =
  Test_served.with_server (fun socket ->
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let payload = Pgo.to_bytes (sample_profile ()) in
          match Served.upload c payload with
          | _ -> Alcotest.fail "upload without --profile-dir must fail"
          | exception Failure _ -> ()))

(* A daemon upload whose image line is a path must not write outside
   the profile directory; it is refused, counted, and the daemon
   answers the next request. *)
let test_daemon_refuses_escaping_upload () =
  Test_pipeline.with_temp_dir (fun base ->
      let profile_dir = Filename.concat base "profiles" in
      let escaping =
        Pgo.add (Pgo.empty "../escaped")
          (Pgo.make_run ~source:Pgo.Fleet ~input:"1" ~total_insns:1 [])
      in
      Test_served.with_server ~profile_dir (fun socket ->
          let c = Served.connect ~socket in
          Fun.protect
            ~finally:(fun () -> Served.disconnect c)
            (fun () ->
              (match Served.upload c (Pgo.to_bytes escaping) with
              | _ -> Alcotest.fail "an upload naming a path must be refused"
              | exception Failure _ -> ());
              Alcotest.(check (option int)) "refusal counted" (Some 1)
                (List.assoc_opt "served.errors" (Served.metrics c))));
      Alcotest.(check (list string)) "nothing beside the profile directory"
        [ "profiles" ]
        (Array.to_list (Sys.readdir base));
      Alcotest.(check (list string)) "nothing inside it" []
        (Array.to_list (Sys.readdir profile_dir)))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    QCheck_alcotest.to_alcotest prop_generation_content_keyed;
    Alcotest.test_case "merge rejects mismatched images" `Quick
      test_merge_rejects_other_image;
    Alcotest.test_case "corrupt bytes raise Bad_profile" `Quick
      test_corrupt_bytes_raise;
    Alcotest.test_case ".jprof bytes pinned" `Quick test_jprof_bytes_pinned;
    QCheck_alcotest.to_alcotest prop_of_bytes_only_bad_profile;
    Alcotest.test_case "failed save leaves no temp file" `Quick
      test_failed_save_leaves_no_temp;
    Alcotest.test_case "store refuses non-digest image names" `Quick
      test_store_refuses_non_digest_images;
    Alcotest.test_case "store treats corruption as absence and repairs"
      `Quick test_store_corruption_is_absence;
    Alcotest.test_case "prune honours age and protects live writes" `Quick
      test_prune_age_and_liveness;
    Alcotest.test_case "prune_dir deletes oldest first within byte budget"
      `Quick test_prune_bytes_oldest_first;
    Alcotest.test_case "register_suspect warm-starts in probation" `Quick
      test_register_suspect_starts_probation;
    Alcotest.test_case "fleet evidence flips selection end-to-end" `Slow
      test_evidence_flips_selection;
    Alcotest.test_case "iterate converges on the alias kernel" `Slow
      test_iterate_converges;
    Alcotest.test_case "daemon ingests uploads and survives restart" `Slow
      test_daemon_upload_and_restart;
    Alcotest.test_case "daemon refuses uploads without a profile store"
      `Quick test_daemon_refuses_upload_without_store;
    Alcotest.test_case "daemon refuses an upload that escapes its store"
      `Quick test_daemon_refuses_escaping_upload;
  ]
