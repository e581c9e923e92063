(* janus_analyze: static binary analysis of a JX executable.

   Prints the loop classification summary and optionally writes the
   parallelisation rewrite schedule. Without a profile, every eligible
   loop is selected (the "Statically-Driven" configuration); with
   --profile-dir (a profile store janus_prof --emit-profile wrote)
   selection applies the paper's coverage/trip/work filters and the
   observed-dependence veto to the binary's stored profile — the full
   profile-guided offline workflow of Fig. 1(a). Either way selection is
   Janus.select's, and each rejected loop is printed with its reason.

   --verify re-derives cross-iteration dependences with the independent
   dataflow framework (lib/verify) and cross-checks them against the
   analyser's verdicts; with --emit-schedule it additionally lints the
   schedule it just wrote. Errors make the exit status nonzero. *)

open Cmdliner
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Pgo = Janus_pgo.Pgo
module Verify = Janus_verify.Verify

let report image ~evidence schedule_out disasm verify fission depgraph
    dot_dir =
  if disasm then Fmt.pr "%a@." Janus_vx.Disasm.image image;
  let t = Analysis.analyse_image image in
  Fmt.pr "%a" Analysis.pp_summary t;
  if depgraph || dot_dir <> None then begin
    let module Depgraph = Janus_analysis.Depgraph in
    List.iter
      (fun (r : Loopanal.report) ->
         match Depgraph.build r with
         | None -> ()
         | Some g ->
           Fmt.pr "depgraph: %s@." (Depgraph.summary g);
           match dot_dir with
           | None -> ()
           | Some dir ->
             if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
             let path =
               Filename.concat dir
                 (Printf.sprintf "loop%d.dot" g.Depgraph.dg_lid)
             in
             Out_channel.with_open_text path (fun oc ->
                 Fmt.pf
                   (Format.formatter_of_out_channel oc)
                   "%a@." Depgraph.pp_dot g))
      t.Analysis.reports
  end;
  let emitted = ref None in
  (match schedule_out with
   | Some path ->
     (* the in-process pipeline's filters over the stored profile;
        without one, every eligible loop (DOACROSS ones included) *)
     let sel =
       match evidence with
       | Some e ->
         Janus.select ~cfg:(Janus.config ~fission ()) t
           ~coverage:e.Pipeline.ev_coverage ~deps:e.Pipeline.ev_deps
       | None ->
         Janus.select
           ~cfg:(Janus.config ~use_profile:false ~use_doacross:true ~fission ())
           t ~coverage:None ~deps:None
     in
     List.iter
       (fun (lid, reason) -> Fmt.pr "loop %d rejected: %s@." lid reason)
       sel.Janus.rejected;
     let sched, encoded =
       Janus_analysis.Rulegen.parallel_schedule ~fission t.Analysis.cfg
         sel.Janus.chosen
     in
     Out_channel.with_open_bin path (fun oc ->
         Out_channel.output_bytes oc (Janus_schedule.Schedule.to_bytes sched));
     emitted := Some sched;
     Fmt.pr "wrote %s: %d rules for %d loops (%d bytes, %.1f%% of binary)@."
       path
       (List.length sched.Janus_schedule.Schedule.rules)
       (List.length encoded)
       (Janus_schedule.Schedule.size sched)
       (100.0
        *. float_of_int (Janus_schedule.Schedule.size sched)
        /. float_of_int (Janus_vx.Image.size image))
   | None -> ());
  if not verify then 0
  else begin
    let findings = Verify.crosscheck t in
    let findings =
      match !emitted with
      | Some sched -> findings @ Verify.lint image sched
      | None -> findings
    in
    if findings = [] then Fmt.pr "verify: clean@."
    else
      List.iter (fun f -> Fmt.pr "verify: %a@." Verify.pp_finding f) findings;
    if Verify.has_errors findings then 1 else 0
  end

let analyse input schedule_out disasm profile_dir verify fission depgraph
    dot_dir =
  let image = Cli.read_image ~tool:"janus_analyze" input in
  let stored dir =
    Pgo.Store.evidence_for (Pgo.Store.open_ dir)
      ~image:(Pipeline.image_key image)
  in
  match Option.map (fun dir -> (dir, stored dir)) profile_dir with
  | Some (dir, None) ->
    Fmt.epr "janus_analyze: %s holds no profile for %s@." dir input;
    2
  | p ->
    report image ~evidence:(Option.bind p snd) schedule_out disasm verify
      fission depgraph dot_dir

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BIN")

let schedule_out =
  Arg.(value & opt (some string) None & info [ "emit-schedule" ] ~docv:"OUT")

let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Print disassembly")

let profile_dir =
  Arg.(value & opt (some dir) None
       & info [ "profile-dir" ] ~docv:"DIR"
           ~doc:"Profile store written by janus_prof --emit-profile (or\n\
                 janus_pgo); enables profile-guided loop selection for\n\
                 --emit-schedule. Exits 2 when $(docv) holds no profile\n\
                 for the binary.")

let verify_flag =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Cross-check loop dependence verdicts against an \
                 independent dataflow re-derivation, and lint the emitted \
                 schedule (with --emit-schedule). Nonzero exit on errors.")

let fission_flag =
  Arg.(value & flag
       & info [ "fission" ]
           ~doc:"Split eligible Static-Dependence loops statement-wise \
                 (SCC-driven loop fission) when emitting the schedule: \
                 adds LOOP_FISSION rules carrying the sub-loop \
                 partition. Off, emitted bytes are identical to a \
                 fission-free build.")

let depgraph_flag =
  Arg.(value & flag
       & info [ "depgraph" ]
           ~doc:"Print one dependence-graph census line per analysed loop \
                 body (nodes, edges, SCCs, fission groups).")

let dot_dir =
  Arg.(value & opt (some string) None
       & info [ "depgraph-dot" ] ~docv:"DIR"
           ~doc:"Also write each loop's dependence graph (SCC-clustered, \
                 carried edges dashed) as DIR/loop<id>.dot.")

let cmd =
  Cmd.v
    (Cmd.info "janus_analyze"
       ~doc:"Static binary analyser: loop classification + rewrite schedules")
    Term.(
      const analyse $ input $ schedule_out $ disasm $ profile_dir $ verify_flag
      $ fission_flag $ depgraph_flag $ dot_dir)

let () = exit (Cmd.eval' cmd)
