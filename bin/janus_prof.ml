(* janus_profile: statically-driven profiling of a JX executable on a
   training input (the optional training stage of Fig. 1(a)). *)

open Cmdliner
module Profiler = Janus_profile.Profiler
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Pgo = Janus_pgo.Pgo
module Pipeline = Janus_core.Pipeline

let profile input scale emit_profile =
  let image = Cli.read_image ~tool:"janus_prof" input in
  let t = Analysis.analyse_image image in
  let inp = [ Int64.of_int scale ] in
  let cov, deps = Profiler.run ~input:inp image t in
  Fmt.pr "total dynamic instructions: %d@." cov.Profiler.total_insns;
  Fmt.pr "%-8s %-14s %10s %10s %8s %8s %6s@." "loop" "class" "coverage"
    "avg-trip" "invocs" "work" "dep?";
  List.iter
    (fun (r : Loopanal.report) ->
       let lid = r.Loopanal.loop.Janus_analysis.Looptree.lid in
       let c = Profiler.cov_of cov lid in
       Fmt.pr "%-8d %-14s %9.2f%% %10.1f %8d %8.0f %6s@." lid
         (Loopanal.classification_name r.Loopanal.cls)
         (100.0 *. Profiler.fraction cov lid)
         (Profiler.avg_trip cov lid) c.Profiler.invocations
         (Profiler.avg_work cov lid)
         (if Profiler.has_dep deps lid then "yes"
          else if Profiler.was_observed deps lid then "no"
          else "-"))
    t.Analysis.reports;
  (match emit_profile with
   | Some dir ->
     let store = Pgo.Store.open_ dir in
     let run =
       Pgo.run_of_profile ~source:Pgo.Training
         ~input:(Int64.to_string (Int64.of_int scale))
         ~coverage:(Some cov) ~deps:(Some deps)
     in
     let merged =
       Pgo.Store.save store (Pgo.add (Pgo.empty (Pipeline.image_key image)) run)
     in
     Fmt.pr "merged training run into %s (image %s, %d runs)@." dir
       merged.Pgo.p_image (Pgo.runs merged)
   | None -> ());
  0

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BIN")

let scale =
  Arg.(value & opt int 10 & info [ "scale" ] ~docv:"N"
         ~doc:"Training input (read by the program via read_int)")

let emit_profile =
  Arg.(value & opt (some string) None
       & info [ "emit-profile" ] ~docv:"DIR"
           ~doc:"Merge this training run into the persistent profile store\n\
                 at $(docv) (one .jprof per binary, keyed by image digest)\n\
                 for janus_analyze, janus_pgo and janus_eval --profile-dir.")

let cmd =
  Cmd.v
    (Cmd.info "janus_prof" ~doc:"Coverage and dependence profiling")
    Term.(const profile $ input $ scale $ emit_profile)

let () = exit (Cmd.eval' cmd)
