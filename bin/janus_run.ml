(* janus_run: execute a JX binary natively, under the plain DBM, or
   fully parallelised by Janus. *)

open Cmdliner
module Janus = Janus_core.Janus
module Obs = Janus_obs.Obs
module Run = Janus_vm.Run
module Pgo = Janus_pgo.Pgo

(* exit codes: 0/program's own code on success, 2 for unusable inputs
   (cmdliner reserves 124 for argument parse errors), 3 for runs
   truncated by fuel exhaustion *)
let exit_bad_input = 2
let exit_out_of_fuel = 3

let die code fmt = Fmt.kstr (fun s -> Fmt.epr "janus_run: %s@." s; code) fmt

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let export_obs obs ~trace_out ~trace_jsonl =
  (match trace_out with
   | Some path -> write_file path (Obs.chrome_json obs)
   | None -> ());
  (match trace_jsonl with
   | Some path -> write_file path (Obs.jsonl obs)
   | None -> ())

let print_obs obs ~trace_summary ~metrics =
  if trace_summary then Fmt.pr "%a" Obs.pp_summary obs
  else if metrics then
    List.iter (fun (k, v) -> Fmt.pr "%-32s %12d@." k v) (Obs.counters obs)

let run input mode threads scale train_scale schedule_file prefetch fission
    model_cache fuel trace_out trace_jsonl trace_summary metrics adapt
    adapt_report emit_profile =
  let image = Cli.read_image ~tool:"janus_run" input in
  let inp = [ Int64.of_int scale ] in
  let tracing = trace_out <> None || trace_jsonl <> None || trace_summary in
  let adapt = adapt || adapt_report <> None || emit_profile <> None in
  let cfg =
    Janus.config ~threads ~prefetch ~fission ~model_cache ~fuel ~trace:tracing
      ~adapt ()
  in
  let schedule =
    match schedule_file with
    | None -> Ok None
    | Some path -> begin
        match Janus_schedule.Schedule.of_bytes (Cli.read_file path) with
        | sched -> Ok (Some sched)
        | exception Janus_schedule.Schedule.Bad_schedule msg ->
          Error (die exit_bad_input "%s is not a rewrite schedule: %s" path msg)
      end
  in
  match schedule with
  | Error code -> code
  | Ok schedule ->
  let result =
    match mode, schedule with
    | "native", _ -> begin
        match Janus.run_native ~fuel ~input:inp ~model_cache image with
        | r -> Ok r
        | exception Run.Out_of_fuel ->
          Error (die exit_out_of_fuel "native run out of fuel (%d); raise --fuel" fuel)
      end
    | "dbm", _ -> Ok (Janus.run_dbm_only ~fuel ~input:inp ~trace:tracing image)
    | _, Some sched ->
      (* deployment mode: use the shipped rewrite schedule as-is *)
      Ok (Janus.run_scheduled ~cfg ~input:inp image sched)
    | ("janus" | _), None ->
      Ok
        (Janus.parallelise ~cfg
           ~train_input:[ Int64.of_int train_scale ]
           ~input:inp image)
  in
  match result with
  | Error code -> code
  | Ok result ->
  (match result.Janus.obs with
   | Some obs -> export_obs obs ~trace_out ~trace_jsonl
   | None -> ());
  match result.Janus.aborted with
  | Some (Janus.Out_of_fuel { addr; loop }) ->
    (match result.Janus.obs with
     | Some obs when Obs.tracing obs && Obs.total_events obs > 0 ->
       Fmt.epr "janus_run: last events before the fuel ran out:@.%s"
         (Obs.trace_tail obs)
     | _ -> ());
    die exit_out_of_fuel
      "out of fuel (%d) at 0x%x%s after %d cycles; raise --fuel" fuel addr
      (match loop with
       | Some lid -> Printf.sprintf " in loop %d" lid
       | None -> "")
      result.Janus.cycles
  | None ->
    (match adapt_report, result.Janus.governor with
     | Some path, Some g ->
       write_file path (Fmt.str "%a" Janus.Adapt.pp_report g)
     | Some path, None ->
       (* native/dbm modes carry no governor; an empty report is less
          surprising than a silently missing file *)
       write_file path
         (Fmt.str "no adaptive governor in --mode %s (use janus)@." mode)
     | None, _ -> ());
    (match emit_profile with
     | Some dir -> begin
         let store = Pgo.Store.open_ dir in
         match Pgo.collect_governed ~store ~input:inp image result with
         | Some merged ->
           Fmt.epr "janus_run: merged governed ledger into %s (image %s, %d runs)@."
             dir merged.Pgo.p_image (Pgo.runs merged)
         | None ->
           Fmt.epr "janus_run: --emit-profile: no governor in --mode %s@." mode
       end
     | None -> ());
    print_string result.Janus.output;
    Fmt.pr "--- %s: %d cycles, %d instructions, exit %d@." mode
      result.Janus.cycles result.Janus.icount result.Janus.exit_code;
    if result.Janus.selected_loops <> [] then
      Fmt.pr "--- parallelised loops: %a; schedule %d bytes@."
        Fmt.(list ~sep:comma int)
        result.Janus.selected_loops result.Janus.schedule_size;
    if result.Janus.demoted_loops <> [] then
      Fmt.pr "--- loops demoted to sequential by the schedule verifier: %a@."
        Fmt.(list ~sep:comma int)
        result.Janus.demoted_loops;
    if result.Janus.stm_commits > 0 || result.Janus.stm_aborts > 0 then
      Fmt.pr "--- STM: %d commits, %d aborts@." result.Janus.stm_commits
        result.Janus.stm_aborts;
    (match result.Janus.obs with
     | Some obs -> print_obs obs ~trace_summary ~metrics
     | None -> ());
    result.Janus.exit_code

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BIN")

let mode =
  Arg.(value & opt string "janus" & info [ "mode" ] ~docv:"MODE"
         ~doc:"native | dbm | janus")

let threads =
  Arg.(value & opt (Cli.pos_int "--threads") 8 & info [ "threads" ] ~docv:"N")

let scale =
  Arg.(value & opt (Cli.nonneg_int "--scale") 10 & info [ "scale" ] ~docv:"N")

let train_scale =
  Arg.(value & opt (Cli.nonneg_int "--train-scale") 4
       & info [ "train-scale" ] ~docv:"N")

let schedule_file =
  Arg.(value & opt (some file) None & info [ "schedule" ] ~docv:"JRS"
         ~doc:"Use a pre-generated rewrite schedule instead of analysing")

let prefetch =
  Arg.(value & flag
       & info [ "prefetch" ]
           ~doc:"Emit MEM_PREFETCH rules for the selected loops' strided\n\
                 accesses (pair with --cache-model).")

let fission =
  Arg.(value & flag
       & info [ "fission" ]
           ~doc:"Distribute Static-Dependence loops whose dependence graph\n\
                 splits into carried-free and carried components into a\n\
                 DOALL fission product plus a sequential residue (verified\n\
                 rewrite; demoted on any linter finding).")

let model_cache =
  Arg.(value & flag
       & info [ "cache-model" ]
           ~doc:"Charge cold-line cache misses in the cycle model (applies\n\
                 to native runs too, for a fair baseline).")

let fuel =
  Arg.(value & opt (Cli.pos_int "--fuel") 400_000_000
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Instruction budget; exhausting it exits 3 with a diagnostic.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record per-thread event timelines and write them as Chrome\n\
                 trace_event JSON (open in chrome://tracing or Perfetto).")

let trace_jsonl =
  Arg.(value & opt (some string) None
       & info [ "trace-jsonl" ] ~docv:"FILE"
           ~doc:"Write the raw event stream as one JSON object per line.")

let trace_summary =
  Arg.(value & flag
       & info [ "trace-summary" ]
           ~doc:"Record events and print a human-readable census with the\n\
                 counters and histograms.")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the run's metrics counters (no event recording).")

let adapt =
  Arg.(value & flag
       & info [ "adapt" ]
           ~doc:"Govern the parallelised loops online: demote loops whose\n\
                 checks keep failing (or that lose cycles) to sequential\n\
                 execution, probe them periodically for re-promotion, and\n\
                 decide unprofiled checked loops by sampling their first\n\
                 invocations under shadow memory (training-free mode).")

let adapt_report =
  Arg.(value & opt (some string) None
       & info [ "adapt-report" ] ~docv:"FILE"
           ~doc:"Write the governor's per-loop ledger (state, invocations,\n\
                 demotions, probes, samples) to $(docv); implies --adapt.")

let emit_profile =
  Arg.(value & opt (some string) None
       & info [ "emit-profile" ] ~docv:"DIR"
           ~doc:"Merge the run's governed per-loop ledger into the persistent\n\
                 profile store at $(docv) (one .jprof per binary, keyed by\n\
                 image digest) for janus_pgo / janus_eval --profile-dir;\n\
                 implies --adapt.")

let cmd =
  Cmd.v
    (Cmd.info "janus_run" ~doc:"Run a JX binary (native / dbm / janus)")
    Term.(const run $ input $ mode $ threads $ scale $ train_scale
          $ schedule_file $ prefetch $ fission $ model_cache $ fuel
          $ trace_out $ trace_jsonl $ trace_summary $ metrics $ adapt
          $ adapt_report $ emit_profile)

let () = exit (Cmd.eval' cmd)
