(* janus_served: the long-running schedule service and its client.

   Subcommands:
     serve    --socket PATH [--store-dir DIR] [--profile-dir DIR] [--jobs N]
     analyse  --socket PATH --bench NAME
     schedule --socket PATH --bench NAME [--out FILE]
     upload   --socket PATH --file FILE.jprof
     metrics  --socket PATH
     stop     --socket PATH

   The server answers analyse/schedule requests from its artifact
   store; with --store-dir the store persists on disk, so a restarted
   daemon still answers previously-seen binaries warm. The client
   subcommands compile a suite benchmark deterministically and send it,
   printing cache-hit= so scripts can assert warm answers.

   Exit codes: 0 success, 124 usage error (cmdliner), 3 runtime
   failure. *)

open Cmdliner
module Served = Janus_served_lib.Served
module Suite = Janus_suite.Suite
module Pipeline = Janus_core.Pipeline
module Pool = Janus_pool.Pool

let exit_runtime = 3

let die fmt =
  Fmt.kstr (fun s -> Fmt.epr "janus_served: %s@." s; exit_runtime) fmt

(* a [Failure] from the library is a runtime failure, not a crash *)
let guard f = try f () with Failure e -> Fmt.epr "%s@." e; exit_runtime

let with_connection socket f =
  match Served.connect ~socket with
  | exception Unix.Unix_error (e, _, _) ->
    die "cannot connect to %s: %s" socket (Unix.error_message e)
  | c ->
    Fun.protect ~finally:(fun () -> Served.disconnect c) (fun () -> f c; 0)

let serve socket store_dir profile_dir jobs =
  guard @@ fun () ->
  (* a client that hangs up mid-reply must cost its own connection (an
     EPIPE, counted in served.errors), not the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Pipeline.store ?dir:store_dir () in
  let serve pool =
    let server = Served.create_server ~store ?pool ?profile_dir ~socket () in
    Fmt.pr "janus_served: listening on %s (jobs=%d, store=%s, profiles=%s)@."
      socket jobs
      (Option.value ~default:"memory" (Pipeline.store_dir store))
      (Option.value ~default:"off" profile_dir);
    Served.serve server;
    Fmt.pr "janus_served: shut down@."
  in
  if jobs > 1 then Pool.with_pool ~jobs (fun p -> serve (Some p))
  else serve None;
  0

let analyse socket (b : Suite.benchmark) =
  guard @@ fun () ->
  with_connection socket (fun c ->
      let r = Served.analyse c (Suite.compile b) in
      Fmt.pr "bench=%s functions=%d loops=%d cache-hit=%b@." b.Suite.name
        r.Served.a_functions r.Served.a_loops r.Served.a_cache_hit)

let schedule socket (b : Suite.benchmark) out =
  guard @@ fun () ->
  with_connection socket (fun c ->
      let r =
        Served.schedule c ~train_input:(Suite.train_input b) (Suite.compile b)
      in
      Fmt.pr "bench=%s schedule-bytes=%d schedule-md5=%s demoted=%d \
              findings=%d cache-hit=%b gen=%s@."
        b.Suite.name
        (Bytes.length r.Served.s_schedule)
        (Digest.to_hex (Digest.bytes r.Served.s_schedule))
        (List.length r.Served.s_demoted)
        r.Served.s_findings r.Served.s_cache_hit
        (if r.Served.s_generation = "" then "-" else r.Served.s_generation);
      Option.iter
        (fun path ->
           Out_channel.with_open_bin path (fun oc ->
               Out_channel.output_bytes oc r.Served.s_schedule))
        out)

let upload socket file =
  guard @@ fun () ->
  match
    In_channel.with_open_bin file (fun ic ->
        Bytes.of_string (In_channel.input_all ic))
  with
  | exception Sys_error e -> die "cannot read %s: %s" file e
  | payload ->
    with_connection socket (fun c ->
        let r = Served.upload c payload in
        Fmt.pr "uploaded=%s image=%s runs=%d total-runs=%d@." file
          r.Served.u_image r.Served.u_runs r.Served.u_total_runs)

let metrics socket =
  guard @@ fun () ->
  with_connection socket (fun c ->
      List.iter (fun (name, v) -> Fmt.pr "%s %d@." name v) (Served.metrics c))

let stop socket =
  guard @@ fun () -> with_connection socket Served.shutdown

(* ---- arguments ---- *)

let socket =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's unix socket.")

let bench =
  Arg.(required & opt (some Cli.bench) None
       & info [ "bench" ] ~docv:"NAME"
           ~doc:"Suite benchmark to compile and send.")

let store_dir =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Persist the artifact store under $(docv), so a restarted\n\
                 daemon answers previously-seen binaries warm.")

let profile_dir =
  Arg.(value & opt (some string) None
       & info [ "profile-dir" ] ~docv:"DIR"
           ~doc:"Accept .jprof uploads into the profile store at $(docv)\n\
                 and schedule from the merged evidence.")

let jobs =
  Arg.(value & opt (Cli.pos_int "--jobs") 1
       & info [ "jobs" ] ~docv:"N" ~doc:"Analyse on $(docv) domains.")

let out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE" ~doc:"Write the schedule bytes to $(docv).")

let file =
  Arg.(required & opt (some string) None
       & info [ "file" ] ~docv:"FILE.jprof" ~doc:"The profile to upload.")

let sub name doc term = Cmd.v (Cmd.info name ~doc) term

let cmd =
  Cmd.group
    (Cmd.info "janus_served" ~doc:"The schedule daemon and its client")
    [
      sub "serve" "Run the daemon until a stop request"
        Term.(const serve $ socket $ store_dir $ profile_dir $ jobs);
      sub "analyse" "Ask for a benchmark's analysis"
        Term.(const analyse $ socket $ bench);
      sub "schedule" "Ask for a benchmark's verified schedule"
        Term.(const schedule $ socket $ bench $ out);
      sub "upload" "Ship a .jprof profile to the daemon"
        Term.(const upload $ socket $ file);
      sub "metrics" "Print the daemon's counters"
        Term.(const metrics $ socket);
      sub "stop" "Shut the daemon down" Term.(const stop $ socket);
    ]

let () = exit (Cmd.eval' cmd)
