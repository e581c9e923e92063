(* janus_fuzz: differential fuzzing of the whole Janus stack.

   Generates seeded random loop-nest kernels with ground-truth
   dependence labels (lib/fuzz), compiles each through jcc and asserts
   the full oracle: native == DBM-sequential == parallel at every
   requested thread count == adaptive, classification soundness,
   schedule verification and the cycle-model invariants.

   On a violation the kernel is shrunk on its typed AST to a locally
   minimal reproducer, printed, and (with --save-corpus) written under
   test/corpus/ where `dune runtest` replays it forever.

   --self-test runs the deliberately mislabelled kernel instead: the
   oracle must fail it, so the exit status is the *inverted* proof that
   the harness can still catch bugs (non-zero = caught, as a real
   violation would be; zero = the oracle has gone blind).

   Exit status: 0 = no violations, 1 = violations (or self-test caught).

   Usage: janus_fuzz --seed 5 --count 500 [--time-budget 60]
                     [--threads-list 1,2,4,8] [--save-corpus] [--mixed]
                     [--corpus-dir test/corpus] [--self-test] *)

open Cmdliner
module Kernel = Janus_fuzz_lib.Kernel
module Gen = Janus_fuzz_lib.Gen
module Emit = Janus_fuzz_lib.Emit
module Oracle = Janus_fuzz_lib.Oracle
module Shrink = Janus_fuzz_lib.Shrink
module Pool = Janus_pool.Pool
module Pgo = Janus_pgo.Pgo

let still_failing ~threads k =
  Kernel.valid k
  && (match Oracle.check ~threads k with
     | Oracle.Fail _ -> true
     | Oracle.Pass | Oracle.Skip _ -> false)

let report_failure ~threads ~save_corpus ~corpus_dir ~label k fs =
  Fmt.pr "@.=== VIOLATION (%s) ===@." label;
  List.iter (fun f -> Fmt.pr "  %a@." Oracle.pp_failure f) fs;
  Fmt.pr "shrinking...@.";
  let small = Shrink.minimise ~still_failing:(still_failing ~threads) k in
  Fmt.pr "minimal kernel (%d loops, %d statements):@.%s@."
    (Kernel.loop_count small) (Kernel.stmt_count small)
    (Kernel.to_string small);
  (match Oracle.check ~threads small with
   | Oracle.Fail fs' ->
     List.iter (fun f -> Fmt.pr "  %a@." Oracle.pp_failure f) fs'
   | _ -> ());
  if save_corpus then begin
    (try Unix.mkdir corpus_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat corpus_dir (label ^ ".jfk") in
    Out_channel.with_open_text path (fun oc ->
        output_string oc ("; shrunk reproducer: " ^ label ^ "\n");
        output_string oc (Kernel.to_string small);
        output_string oc "\n");
    Fmt.pr "reproducer written to %s@." path
  end

let run_self_test ~threads ~save_corpus ~corpus_dir =
  let k = Oracle.mislabelled in
  match Oracle.check ~threads k with
  | Oracle.Fail fs ->
    report_failure ~threads ~save_corpus:false ~corpus_dir ~label:"self-test" k fs;
    ignore save_corpus;
    Fmt.pr "self-test: oracle caught the mislabelled kernel (good)@.";
    1
  | Oracle.Pass ->
    Fmt.epr "self-test: oracle PASSED the mislabelled kernel — it can no \
             longer catch classifier bugs@.";
    0
  | Oracle.Skip why ->
    Fmt.epr "self-test: oracle skipped the mislabelled kernel (%s)@." why;
    0

let run_fuzz ~seed ~count ~time_budget ~threads ~mixed ~jobs ~save_corpus
    ~corpus_dir ~emit_profiles =
  let t0 = Unix.gettimeofday () in
  let deadline =
    match time_budget with None -> infinity | Some s -> t0 +. float_of_int s
  in
  let pass = ref 0 and skip = ref 0 and fail = ref 0 in
  let done_ = ref 0 in
  let profile_store = Option.map Pgo.Store.open_ emit_profiles in
  let profiled = ref 0 in
  (* each passing kernel becomes one fleet member: its profiler run is
     merged into the store keyed by its image digest; runs are
     content-addressed, so replaying a seed is idempotent *)
  let emit_profile k =
    match profile_store with
    | None -> ()
    | Some store ->
      if Kernel.valid k then begin
        ignore (Pgo.collect ~source:Pgo.Fleet ~store ~input:[] (Emit.image k));
        incr profiled
      end
  in
  (* Every case derives its own PRNG from (seed, case index), so the
     kernel stream is a pure function of the case number: partitioning
     cases over a domain pool cannot change what gets generated, stats
     merge to the same totals at any --jobs, and a violation's
     seedN-caseM label regenerates the exact kernel regardless of how
     the batch was scheduled. *)
  let check i =
    let k = Gen.sample ~mixed (Random.State.make [| seed; i |]) in
    (i, k, Oracle.check ~threads k)
  in
  (* shrinking and corpus writes stay on the calling domain, in case
     order, so reports are deterministic too *)
  let settle results =
    List.iter
      (fun (i, k, r) ->
         incr done_;
         match r with
         | Oracle.Pass ->
           incr pass;
           emit_profile k
         | Oracle.Skip _ -> incr skip
         | Oracle.Fail fs ->
           incr fail;
           report_failure ~threads ~save_corpus ~corpus_dir
             ~label:(Printf.sprintf "seed%d-case%d" seed i)
             k fs)
      results;
    Fmt.pr "[%4d/%d] pass=%d skip=%d fail=%d (%.1fs)@." !done_ count !pass
      !skip !fail
      (Unix.gettimeofday () -. t0)
  in
  (* cases are dispatched in waves; the time budget is checked between
     waves (a wave in flight is allowed to finish) *)
  let wave = if jobs > 1 then jobs * 8 else 50 in
  let go pool =
    let next = ref 1 in
    while !next <= count && Unix.gettimeofday () < deadline do
      let hi = min count (!next + wave - 1) in
      let idxs = List.init (hi - !next + 1) (fun j -> !next + j) in
      next := hi + 1;
      let results =
        match pool with
        | Some p -> Pool.map p check idxs
        | None -> List.map check idxs
      in
      settle results
    done
  in
  (if jobs > 1 then Pool.with_pool ~jobs (fun p -> go (Some p)) else go None);
  Fmt.pr "%d cases: %d pass, %d skip, %d FAIL (%.1fs, seed %d)@." !done_ !pass
    !skip !fail
    (Unix.gettimeofday () -. t0)
    seed;
  (match emit_profiles with
   | Some dir -> Fmt.pr "profiles: %d kernels merged into %s@." !profiled dir
   | None -> ());
  if !fail > 0 then 1 else 0

let run seed count time_budget threads_list mixed jobs save_corpus corpus_dir
    emit_profiles self_test =
  let threads =
    match threads_list with
    | None -> Oracle.default_threads
    | Some s ->
      let parts = String.split_on_char ',' s in
      let ts =
        List.filter_map
          (fun p ->
             match int_of_string_opt (String.trim p) with
             | Some t when t >= 1 -> Some t
             | _ -> None)
          parts
      in
      if ts = [] then (
        Fmt.epr "janus_fuzz: --threads-list %S has no valid entries@." s;
        exit 2);
      ts
  in
  if self_test then run_self_test ~threads ~save_corpus ~corpus_dir
  else
    run_fuzz ~seed ~count ~time_budget ~threads ~mixed ~jobs ~save_corpus
      ~corpus_dir ~emit_profiles

let seed =
  Arg.(value & opt int 5 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let count =
  Arg.(
    value & opt int 500
    & info [ "count" ] ~docv:"N" ~doc:"Number of kernels to generate.")

let time_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "time-budget" ] ~docv:"S"
        ~doc:"Stop generating after $(docv) seconds, even below --count.")

let threads_list =
  Arg.(
    value
    & opt (some string) None
    & info [ "threads-list" ] ~docv:"T1,T2,..."
        ~doc:"Comma-separated thread counts for the parallel runs \
              (default 1,2,4,8).")

let jobs =
  Arg.(
    value & opt (Cli.pos_int "--jobs") 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Check kernels on $(docv) domains. Case generation is keyed \
              by (seed, case index), so pass/skip/fail totals and any \
              violation labels are identical at every $(docv).")

let mixed =
  Arg.(
    value & flag
    & info [ "mixed" ]
        ~doc:"Weight generation towards mixed chain-plus-stream loop \
              bodies labelled fissionable, exercising the LOOP_FISSION \
              extension (the oracle then also asserts each labelled \
              loop splits and survives verification).")

let save_corpus =
  Arg.(
    value & flag
    & info [ "save-corpus" ]
        ~doc:"Write shrunk reproducers to the corpus directory.")

let corpus_dir =
  Arg.(
    value
    & opt string "test/corpus"
    & info [ "corpus-dir" ] ~docv:"DIR"
        ~doc:"Directory for shrunk reproducers (with --save-corpus).")

let emit_profiles =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-profiles" ] ~docv:"DIR"
        ~doc:"Profile every passing kernel (coverage + dependence) and \
              merge the runs into the persistent profile store at $(docv) \
              — the generated kernels act as an input fleet for \
              janus_pgo.")

let self_test =
  Arg.(
    value & flag
    & info [ "self-test" ]
        ~doc:"Run the deliberately mislabelled kernel through the oracle \
              instead of fuzzing; exits non-zero when (correctly) caught.")

let cmd =
  let doc = "differential fuzzing of the Janus parallelisation stack" in
  Cmd.v
    (Cmd.info "janus_fuzz" ~doc)
    Term.(
      const run $ seed $ count $ time_budget $ threads_list $ mixed $ jobs
      $ save_corpus $ corpus_dir $ emit_profiles $ self_test)

let () = exit (Cmd.eval' cmd)
