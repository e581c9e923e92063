(* janus_verify: static verification of a rewrite schedule against the
   binary it rewrites.

   Lints every cross-reference between a .jrs schedule and its .jx
   executable: rule trigger addresses must be instruction boundaries,
   LOOP_INIT/LOOP_FINISH, TX_START/TX_FINISH and spill/recover pairs
   must close, privatisation regions must be disjoint, descriptors must
   decode in bounds, and every register the schedule discards must be
   provably dead (by dataflow over the recovered CFG). With
   --crosscheck it additionally re-derives each loop's dependence
   verdict from first principles and reports disagreements with the
   classifier.

   Exit status 1 when any error-severity finding is reported.

   Usage: janus_verify BIN.jx SCHED.jrs [--crosscheck] *)

open Cmdliner
module Analysis = Janus_analysis.Analysis
module Verify = Janus_verify.Verify
module Schedule = Janus_schedule.Schedule

let run bin jrs do_crosscheck quiet =
  let image = Cli.read_image ~tool:"janus_verify" bin in
  (* a corrupt schedule is an expected condition for a verifier, not an
     internal error: report it cleanly instead of escaping to cmdliner *)
  let sched =
    match Schedule.of_bytes (Cli.read_file jrs) with
    | sched -> sched
    | exception Schedule.Bad_schedule msg ->
      Fmt.epr "janus_verify: %s is not a readable JRS schedule (%s)@." jrs msg;
      exit 2
  in
  let findings = Verify.lint image sched in
  let findings =
    if do_crosscheck then
      findings @ Verify.crosscheck (Analysis.analyse_image image)
    else findings
  in
  let rank = function
    | Verify.Error -> 0
    | Verify.Warning -> 1
    | Verify.Info -> 2
  in
  let findings =
    List.stable_sort
      (fun (a : Verify.finding) b -> compare (rank a.severity) (rank b.severity))
      findings
  in
  List.iter
    (fun (f : Verify.finding) ->
       if (not quiet) || f.Verify.severity = Verify.Error then
         Fmt.pr "%a@." Verify.pp_finding f)
    findings;
  let n sev =
    List.length (List.filter (fun f -> f.Verify.severity = sev) findings)
  in
  Fmt.pr "%s: %d rules, %d error(s), %d warning(s), %d info@." jrs
    (List.length sched.Schedule.rules)
    (n Verify.Error) (n Verify.Warning) (n Verify.Info);
  if Verify.has_errors findings then 1 else 0

let bin_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"BIN.jx")

let jrs_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SCHED.jrs")

let crosscheck_flag =
  Arg.(value & flag
       & info [ "crosscheck" ]
           ~doc:"Also re-derive every loop's dependence verdict and report \
                 disagreements with the static classifier.")

let quiet_flag =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print only errors.")

let cmd =
  Cmd.v
    (Cmd.info "janus_verify"
       ~doc:"Statically verify a rewrite schedule against its binary")
    Term.(const run $ bin_arg $ jrs_arg $ crosscheck_flag $ quiet_flag)

let () = exit (Cmd.eval' cmd)
