(* Tests for the differential fuzzing harness: oracle self-test,
   shrinking bounds, kernel codec round-trips, the trace-promotion
   equivalence property, and replay of every shrunk reproducer under
   test/corpus/ as a permanent regression case. *)

open Janus_vm
module Kernel = Janus_fuzz_lib.Kernel
module Gen = Janus_fuzz_lib.Gen
module Emit = Janus_fuzz_lib.Emit
module Oracle = Janus_fuzz_lib.Oracle
module Shrink = Janus_fuzz_lib.Shrink
module Dbm = Janus_dbm.Dbm

let failing k =
  Kernel.valid k
  && (match Oracle.check k with
     | Oracle.Fail _ -> true
     | Oracle.Pass | Oracle.Skip _ -> false)

(* the mislabelled kernel is the harness's own canary: the oracle must
   fail it, and the shrinker must cut it down to a tiny reproducer *)
let test_self_test_caught () =
  match Oracle.check Oracle.mislabelled with
  | Oracle.Pass -> Alcotest.fail "oracle passed the mislabelled kernel"
  | Oracle.Skip why -> Alcotest.fail ("oracle skipped mislabelled: " ^ why)
  | Oracle.Fail fs ->
    Alcotest.(check bool) "has failures" true (fs <> []);
    let small = Shrink.minimise ~still_failing:failing Oracle.mislabelled in
    Alcotest.(check bool)
      (Fmt.str "shrunk to <= 2 loops (%d)" (Kernel.loop_count small))
      true
      (Kernel.loop_count small <= 2);
    Alcotest.(check bool)
      (Fmt.str "shrunk to <= 8 statements (%d)" (Kernel.stmt_count small))
      true
      (Kernel.stmt_count small <= 8);
    Alcotest.(check bool) "shrunk kernel still fails" true (failing small)

let test_smoke_seeded () =
  let rng = Random.State.make [| 1234 |] in
  for _ = 1 to 25 do
    let k = Gen.sample rng in
    match Oracle.check k with
    | Oracle.Pass | Oracle.Skip _ -> ()
    | Oracle.Fail fs ->
      Alcotest.fail
        (Fmt.str "oracle violation on %s:@ %a" (Kernel.to_string k)
           (Fmt.list Oracle.pp_failure) fs)
  done

(* every shrunk reproducer replays forever: decode + full oracle *)
let corpus_cases =
  let dir = "corpus" in
  let files =
    match Sys.readdir dir with
    | entries ->
      List.sort String.compare
        (List.filter
           (fun f -> Filename.check_suffix f ".jfk")
           (Array.to_list entries))
    | exception Sys_error _ -> []
  in
  List.map
    (fun f ->
      Alcotest.test_case ("corpus " ^ Filename.chop_extension f) `Quick
        (fun () ->
          let text =
            In_channel.with_open_text (Filename.concat dir f)
              In_channel.input_all
          in
          let k = Kernel.of_string text in
          match Oracle.check k with
          | Oracle.Pass -> ()
          | Oracle.Skip why -> Alcotest.fail ("kernel skipped: " ^ why)
          | Oracle.Fail fs ->
            Alcotest.fail
              (Fmt.str "regression reproduced:@ %a"
                 (Fmt.list Oracle.pp_failure) fs)))
    files

(* the committed fingerprint file pins the execution core: replaying
   every corpus kernel natively must reproduce cycles, icount, exit
   code and final-memory digest byte-for-byte, so any interpreter or
   cost-model change that perturbs observable state is caught here
   (regenerate with test/tools/corpus_digest.exe after an intentional
   change) *)
let test_corpus_fingerprints () =
  let dir = "corpus" in
  let expected =
    In_channel.with_open_text
      (Filename.concat dir "digests.expected")
      In_channel.input_all
  in
  let files =
    List.sort String.compare
      (List.filter
         (fun f -> Filename.check_suffix f ".jfk")
         (Array.to_list (Sys.readdir dir)))
  in
  let got =
    String.concat ""
      (List.map
         (fun f ->
           let text =
             In_channel.with_open_text (Filename.concat dir f)
               In_channel.input_all
           in
           let k = Kernel.of_string text in
           let r = Run.run (Emit.image k) in
           Printf.sprintf "%s %d %d %d %s\n"
             (Filename.chop_extension f)
             r.Run.cycles r.Run.icount r.Run.exit_code r.Run.mem_digest)
         files)
  in
  Alcotest.(check string) "corpus fingerprints" expected got

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"kernel codec round-trips"
    ~print:Kernel.to_string Gen.kernel (fun k ->
      QCheck2.assume (Kernel.valid k);
      Kernel.of_string (Kernel.to_string k) = k)

(* One DBM-only run of [img]: what a guest can observe (output, final
   memory) and the DBM's counters. *)
type dbm_run = {
  out : string;
  mem : string;
  stats : Dbm.stats;
}

let run_dbm ?promote_threshold img =
  let prog = Program.load ~code:(Janus_vx.Code.of_image img) img in
  let dbm = Dbm.create ?promote_threshold prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  (match Dbm.run dbm cache ctx with
  | `Halted -> ()
  | `Yielded -> Alcotest.fail "DBM yielded outside a parallel region"
  | `Out_of_fuel _ -> Alcotest.fail "DBM ran out of fuel");
  { out = Buffer.contents ctx.Machine.out; mem = Run.mem_digest ctx;
    stats = dbm.Dbm.stats }

let kernel_image k =
  QCheck2.assume (Kernel.valid k);
  try Emit.image k with Failure _ -> QCheck2.assume_fail ()

(* trace promotion must be invisible to architectural state: forcing
   promotion on every fragment (threshold 1) and disabling it entirely
   must print the same bytes and leave the same memory image *)
let prop_promotion_equivalence =
  QCheck2.Test.make ~count:30 ~name:"trace promotion preserves state"
    ~print:Kernel.to_string Gen.kernel (fun k ->
      let img = kernel_image k in
      let forced = run_dbm ~promote_threshold:1 img in
      let off = run_dbm ~promote_threshold:max_int img in
      if forced.stats.Dbm.traces_built = 0 then
        QCheck2.Test.fail_report
          "threshold 1 promoted no traces (property is vacuous)";
      if off.stats.Dbm.traces_built > 0 then
        QCheck2.Test.fail_report "disabled promotion still built traces";
      String.equal forced.out off.out && String.equal forced.mem off.mem)

let tests =
  [
    Alcotest.test_case "oracle self-test caught and shrunk" `Quick
      test_self_test_caught;
    Alcotest.test_case "seeded smoke run clean" `Quick test_smoke_seeded;
    Alcotest.test_case "corpus fingerprints pinned" `Quick
      test_corpus_fingerprints;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_promotion_equivalence;
  ]
  @ corpus_cases
