(* janus_eval: regenerate any table or figure of the paper's evaluation
   over the synthetic SPEC-like suite.

   Experiments share one content-keyed artifact store, so e.g. fig7's
   four configurations reuse a single static analysis and profile per
   benchmark; --jobs fans the per-benchmark rows out over domains with
   byte-identical output. *)

open Cmdliner
module Eval = Janus_core.Eval
module Pipeline = Janus_core.Pipeline
module Pool = Janus_pool.Pool
module Obs = Janus_obs.Obs
module Run = Janus_vm.Run
module Pgo = Janus_pgo.Pgo

(* exit codes: 0 on success, 2 for unusable inputs (cmdliner reserves
   124 for argument parse errors), 3 for fuel exhaustion *)
let exit_bad_input = 2
let exit_out_of_fuel = 3

let die code fmt = Fmt.kstr (fun s -> Fmt.epr "janus_eval: %s@." s; code) fmt

(* the registry: experiment id -> one-line description (--list) *)
let registry =
  [
    ("fig6", "loop classification of the 25 benchmarks (Fig. 6)");
    ("fig7", "speedup under the four system configurations (Fig. 7)");
    ("fig8", "cycle breakdown of the parallelised runs (Fig. 8)");
    ("table1", "runtime-check counts and library-call footprint (Table I)");
    ("fig9", "speedup scaling over 1..8 threads (Fig. 9)");
    ("fig10", "rewrite-schedule size vs executable size (Fig. 10)");
    ("fig11", "STM commit/abort behaviour of the speculative loops (Fig. 11)");
    ("fig12", "speedup by compiler optimisation level (Fig. 12)");
    ("doacross", "extension: DOACROSS execution of static-dependence loops");
    ("prefetch", "extension: MEM_PREFETCH rules under the cache-miss model");
    ("adapt",
     "extension: online adaptive governor vs static schedules on \
      misbehaving inputs");
    ("fission",
     "extension: SCC-driven loop fission of static-dependence loops");
  ]

let experiments = List.map fst registry

let run_one ctx = function
  | "fig6" -> Fmt.pr "%a@." Eval.pp_fig6 (Eval.fig6 ~ctx ())
  | "fig7" -> Fmt.pr "%a@." Eval.pp_fig7 (Eval.fig7 ~ctx ())
  | "fig8" -> Fmt.pr "%a@." Eval.pp_fig8 (Eval.fig8 ~ctx ())
  | "table1" ->
    Fmt.pr "%a@." Eval.pp_table1 (Eval.table1 ~ctx ());
    Fmt.pr "%a@." Eval.pp_excall (Eval.excall_footprint ~ctx ())
  | "fig9" -> Fmt.pr "%a@." Eval.pp_fig9 (Eval.fig9 ~ctx ())
  | "fig10" -> Fmt.pr "%a@." Eval.pp_fig10 (Eval.fig10 ~ctx ())
  | "fig11" -> Fmt.pr "%a@." Eval.pp_fig11 (Eval.fig11 ~ctx ())
  | "fig12" -> Fmt.pr "%a@." Eval.pp_fig12 (Eval.fig12 ~ctx ())
  | "doacross" -> Fmt.pr "%a@." Eval.pp_ext_doacross (Eval.ext_doacross ~ctx ())
  | "prefetch" -> Fmt.pr "%a@." Eval.pp_ext_prefetch (Eval.ext_prefetch ~ctx ())
  | "adapt" -> Fmt.pr "%a@." Eval.pp_ext_adapt (Eval.ext_adapt ~ctx ())
  | "fission" -> Fmt.pr "%a@." Eval.pp_ext_fission (Eval.ext_fission ~ctx ())
  | _ -> assert false (* names are validated before any experiment runs *)

(* metrics go to stderr so stdout stays byte-comparable across runs *)
let print_metrics store pool =
  let obs = Obs.create () in
  Pipeline.publish_metrics store obs;
  (match pool with Some p -> Pool.publish_metrics p obs | None -> ());
  List.iter (fun (k, v) -> Fmt.epr "%-32s %12d@." k v) (Obs.counters obs)

let run names jobs no_cache store_dir profile_dir metrics list =
  if list then begin
    List.iter (fun (n, d) -> Fmt.pr "%-10s %s@." n d) registry;
    0
  end
  else
  let todo =
    List.concat_map
      (fun n -> if String.equal n "all" then experiments else [ n ])
      (match names with [] -> [ "all" ] | names -> names)
  in
  match List.find_opt (fun n -> not (List.mem n experiments)) todo with
  | Some bad ->
    die exit_bad_input "unknown experiment %S (expected %s or all)" bad
      (String.concat "|" experiments)
  | None ->
    let store = Pipeline.store ~enabled:(not no_cache) ?dir:store_dir () in
    (* fleet evidence: with --profile-dir, rows for binaries with stored
       profiles are derived from the merged aggregate instead of their
       one-shot training run; without it, evidence is None everywhere
       and output is byte-identical to a pgo-free build *)
    let evidence =
      match profile_dir with
      | None -> fun _ -> None
      | Some dir ->
        let pstore = Pgo.Store.open_ dir in
        fun img ->
          Pgo.Store.evidence_for pstore ~image:(Pipeline.image_key img)
    in
    let go pool =
      let ctx = Eval.ctx ~store ?pool ~evidence () in
      List.iter (run_one ctx) todo;
      if metrics then print_metrics store pool
    in
    (try
       (if jobs > 1 then Pool.with_pool ~jobs (fun p -> go (Some p))
        else go None);
       0
     with
     | Run.Out_of_fuel ->
       die exit_out_of_fuel "a baseline run exhausted its fuel budget"
     | Invalid_argument msg | Failure msg -> die exit_bad_input "%s" msg)

let pos_int what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be positive, got %d" what n))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer, got %S" what s))
  in
  Arg.conv (parse, Fmt.int)

let names =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiments to regenerate (fig6 fig7 fig8 table1 fig9 fig10 \
               fig11 fig12 doacross prefetch adapt fission, or all; see \
               --list). \
               Default: all.")

let jobs =
  Arg.(value & opt (pos_int "--jobs") 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Evaluate benchmark rows on $(docv) domains. Output is\n\
                 byte-identical to --jobs 1.")

let no_cache =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Recompute every pipeline artifact instead of sharing\n\
                 analyses, profiles and schedules across experiments.")

let store_dir =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Persist the artifact store under $(docv) (created if\n\
                 missing): artifacts survive across runs, so a warm\n\
                 rerun skips analysis, profiling and schedule\n\
                 generation. Output is byte-identical to a cold run.")

let profile_dir =
  Arg.(value & opt (some string) None
       & info [ "profile-dir" ] ~docv:"DIR"
           ~doc:"Consult the persistent profile store at $(docv): rows for\n\
                 binaries with stored fleet evidence are selected and\n\
                 scheduled from the merged aggregate instead of a one-shot\n\
                 training run. With no stored profiles (or without this\n\
                 flag) output is byte-identical to a pgo-free run.")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print pipeline.cache.* and pool.* counters to stderr\n\
                 when done.")

let list =
  Arg.(value & flag
       & info [ "list" ]
           ~doc:"Print the experiment registry (id and one-line\n\
                 description) and exit.")

let cmd =
  Cmd.v
    (Cmd.info "janus_eval"
       ~doc:"Regenerate the paper's evaluation tables and figures")
    Term.(const run $ names $ jobs $ no_cache $ store_dir $ profile_dir
          $ metrics $ list)

let () = exit (Cmd.eval' cmd)
