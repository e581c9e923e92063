(* janus_pgo: the persistent profile store and its convergence driver.

   Subcommands:
     collect --bench NAME --store DIR [--scale N] [--source fleet|training]
             [--fuel N]
     show    --bench NAME --store DIR
     iterate --bench NAME --store DIR [--rounds N] [--threshold PCT]
             [--fleet N,N,...] [--adapt]
     store prune --dir DIR [--max-age SECONDS] [--max-bytes BYTES]

   collect runs the offline profiler over one input and merges the run
   into the store (one .jprof per binary); show prints the merged
   aggregate; iterate drives run -> collect -> merge -> re-schedule
   until the schedule digest is stable; store prune bounds the
   directory, oldest files first.

   Exit codes: 0 success, 124 usage error (cmdliner), 3 runtime
   failure. *)

open Cmdliner
module Pgo = Janus_pgo.Pgo
module Suite = Janus_suite.Suite
module Pipeline = Janus_core.Pipeline
module Janus = Janus_core.Janus

let exit_runtime = 3

(* a [Failure] from the library is a runtime failure, not a crash *)
let guard f =
  try f (); 0 with Failure e -> Fmt.epr "%s@." e; exit_runtime

let collect (b : Suite.benchmark) store_dir scale source fuel =
  guard @@ fun () ->
  let store = Pgo.Store.open_ store_dir in
  let scale =
    match scale with
    | Some n -> n
    | None -> (
        match Suite.ref_input b with x :: _ -> Int64.to_int x | [] -> 0)
  in
  let merged =
    Pgo.collect ?fuel ~source ~store ~input:[ Int64.of_int scale ]
      (Suite.compile b)
  in
  Fmt.pr "bench=%s image=%s source=%s scale=%d runs=%d gen=%s@." b.Suite.name
    merged.Pgo.p_image (Pgo.source_name source) scale (Pgo.runs merged)
    (Pgo.generation merged)

let show (b : Suite.benchmark) store_dir =
  guard @@ fun () ->
  let store = Pgo.Store.open_ store_dir in
  let image_k = Pipeline.image_key (Suite.compile b) in
  match Pgo.Store.load store ~image:image_k with
  | None ->
    Fmt.pr "bench=%s image=%s runs=0 (no profile stored)@." b.Suite.name
      image_k;
    if Pgo.Store.errors store > 0 then
      Fmt.pr "store-errors=%d@." (Pgo.Store.errors store)
  | Some p ->
    Fmt.pr "bench=%s image=%s runs=%d gen=%s store-errors=%d@." b.Suite.name
      image_k (Pgo.runs p) (Pgo.generation p) (Pgo.Store.errors store);
    Fmt.pr "%-6s %-11s %6s %10s %12s %8s %8s %8s@." "loop" "verdict" "runs"
      "invocs" "self-insns" "chk-fail" "demoted" "suspect";
    List.iter
      (fun (a : Pgo.agg) ->
        Fmt.pr "%-6d %-11s %6d %10d %12d %8d %8d %8s@." a.Pgo.a_lid
          (Pgo.verdict_name a.Pgo.a_verdict)
          a.Pgo.a_runs a.Pgo.a_invocations a.Pgo.a_self_insns
          a.Pgo.a_checks_failed a.Pgo.a_demotions
          (if a.Pgo.a_suspect then "yes" else "-"))
      (Pgo.aggregate p)

let iterate (b : Suite.benchmark) store_dir max_rounds threshold fleet adapt =
  guard @@ fun () ->
  let store = Pgo.Store.open_ store_dir in
  let fleet =
    match fleet with
    | [] -> [ Suite.ref_input b ]
    | scales -> List.map (fun n -> [ Int64.of_int n ]) scales
  in
  let outcome =
    Pgo.Iterate.run ~cfg:(Janus.config ~adapt ()) ~max_rounds ~threshold
      ~log:(fun line -> Fmt.pr "%s@." line)
      ~store ~train_input:(Suite.train_input b) ~fleet
      ~input:(Suite.ref_input b) (Suite.compile b)
  in
  Fmt.pr "converged=%b rounds=%d baseline-cycles=%d final-cycles=%d@."
    outcome.Pgo.Iterate.o_converged
    (List.length outcome.Pgo.Iterate.o_rounds)
    outcome.Pgo.Iterate.o_baseline_cycles outcome.Pgo.Iterate.o_final_cycles

let prune dir max_age max_bytes =
  if not (Sys.file_exists dir) then begin
    Fmt.epr "janus_pgo: no such directory %s@." dir;
    exit_runtime
  end
  else
    guard @@ fun () ->
    let n = Pgo.Store.prune ?max_age ?max_bytes (Pgo.Store.open_ dir) in
    Fmt.pr "pruned=%d dir=%s@." n dir

(* ---- arguments ---- *)

let nonneg_float what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ ->
      Error (`Msg (Printf.sprintf "%s must be a non-negative number, got %S"
                     what s))
  in
  Arg.conv (parse, Fmt.float)

let bench =
  Arg.(required & opt (some Cli.bench) None
       & info [ "bench" ] ~docv:"NAME" ~doc:"Suite benchmark to profile.")

let store =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"The profile store (one .jprof per binary).")

let scale =
  Arg.(value & opt (some (Cli.nonneg_int "--scale")) None
       & info [ "scale" ] ~docv:"N"
           ~doc:"Input scale of the profiled run. Default: the reference \
                 input.")

let source =
  Arg.(value & opt (enum [ ("fleet", Pgo.Fleet); ("training", Pgo.Training) ])
         Pgo.Fleet
       & info [ "source" ] ~docv:"fleet|training"
           ~doc:"Where the run came from.")

let fuel =
  Arg.(value & opt (some (Cli.nonneg_int "--fuel")) None
       & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget of the run.")

let rounds =
  Arg.(value & opt (Cli.nonneg_int "--rounds") 6
       & info [ "rounds" ] ~docv:"N" ~doc:"Stop after $(docv) rounds.")

let threshold =
  Arg.(value & opt (nonneg_float "--threshold") 0.5
       & info [ "threshold" ] ~docv:"PCT"
           ~doc:"Also stop once a round improves cycles by less than \
                 $(docv) percent.")

let fleet =
  Arg.(value & opt (list int) []
       & info [ "fleet" ] ~docv:"N,N,..."
           ~doc:"Input scales of the fleet runs each round. Default: the \
                 reference input.")

let adapt =
  Arg.(value & flag
       & info [ "adapt" ] ~doc:"Run under the online adaptive governor.")

let dir =
  Arg.(required & opt (some string) None
       & info [ "dir" ] ~docv:"DIR" ~doc:"The store directory to prune.")

let max_age =
  Arg.(value & opt (some (Cli.nonneg_int "--max-age")) None
       & info [ "max-age" ] ~docv:"SECONDS"
           ~doc:"Delete files older than $(docv).")

let max_bytes =
  Arg.(value & opt (some (Cli.nonneg_int "--max-bytes")) None
       & info [ "max-bytes" ] ~docv:"BYTES"
           ~doc:"Delete oldest files first until the directory fits.")

let sub name doc term = Cmd.v (Cmd.info name ~doc) term

let cmd =
  Cmd.group
    (Cmd.info "janus_pgo" ~doc:"The persistent profile store and PGO loop")
    [
      sub "collect" "Profile one run and merge it into the store"
        Term.(const collect $ bench $ store $ scale $ source $ fuel);
      sub "show" "Print a binary's merged profile"
        Term.(const show $ bench $ store);
      sub "iterate" "Run, collect, merge and re-schedule until stable"
        Term.(const iterate $ bench $ store $ rounds $ threshold $ fleet
              $ adapt);
      Cmd.group (Cmd.info "store" ~doc:"Maintain a store directory")
        [ sub "prune" "Bound a store directory, oldest files first"
            Term.(const prune $ dir $ max_age $ max_bytes) ];
    ]

let () = exit (Cmd.eval' cmd)
