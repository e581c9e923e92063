(* Statically-driven profiling (§II-C): the analyser emits profiling
   rewrite rules; the DBM interprets them during one training run to
   measure loop coverage and detect cross-iteration dependences.

     dune exec examples/profiling_demo.exe *)

module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Profiler = Janus_profile.Profiler

let source =
  "double hot[4096]; double cold[16]; int hist[64];\n\
   void scatter(int *idx, double *v, int n) {\n\
   \  for (int i = 0; i < n; i++) { v[idx[i] % 40] = v[idx[i] % 40] + 1.0; }\n\
   }\n\
   int main() {\n\
   \  int n = read_int();\n\
   \  /* hot DOALL loop: most of the execution */\n\
   \  for (int r = 0; r < 8; r++) {\n\
   \    for (int i = 0; i < n; i++) { hot[i] = (double)i * 0.5 + hot[i]; }\n\
   \  }\n\
   \  /* cold loop: tiny coverage, filtered by the profile */\n\
   \  for (int i = 0; i < 16; i++) { cold[i] = (double)i; }\n\
   \  /* statically ambiguous scatter: profiling detects real deps */\n\
   \  int *idx = alloc_int(64);\n\
   \  double *v = alloc_double(64);\n\
   \  for (int i = 0; i < 64; i++) { idx[i] = i * 7; }\n\
   \  scatter(idx, v, 64);\n\
   \  print_float(hot[1] + cold[2] + v[3]);\n\
   \  return 0;\n\
   }"

let () =
  let image = Janus_jcc.Jcc.compile source in
  let analysis = Analysis.analyse_image image in
  let cov, deps = Profiler.run ~input:[ 2048L ] image analysis in
  Fmt.pr "static classification + training-run profile:@.";
  Fmt.pr "%-6s %-14s %9s %9s %6s@." "loop" "class" "coverage" "avg-trip" "dep?";
  List.iter
    (fun (r : Loopanal.report) ->
       let lid = r.Loopanal.loop.Janus_analysis.Looptree.lid in
       Fmt.pr "%-6d %-14s %8.2f%% %9.1f %6s@." lid
         (Loopanal.classification_name r.Loopanal.cls)
         (100.0 *. Profiler.fraction cov lid)
         (Profiler.avg_trip cov lid)
         (if Profiler.has_dep deps lid then "yes"
          else if Profiler.was_observed deps lid then "no"
          else "-"))
    analysis.Analysis.reports;
  (* the scatter loop must show a dynamic dependence *)
  let scatter_dep =
    List.exists
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Ambiguous _ ->
           Profiler.has_dep deps r.Loopanal.loop.Janus_analysis.Looptree.lid
         | _ -> false)
      analysis.Analysis.reports
  in
  Fmt.pr "scatter loop flagged as dynamic dependence: %b@." scatter_dep;
  assert scatter_dep
