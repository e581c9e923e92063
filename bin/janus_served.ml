(* janus_served: the long-running schedule service and its client.

   Subcommands:
     serve    --socket PATH [--store-dir DIR] [--jobs N]
     analyse  --socket PATH --bench NAME
     schedule --socket PATH --bench NAME [--out FILE]
     metrics  --socket PATH
     stop     --socket PATH

   The server answers analyse/schedule requests from its artifact
   store; with --store-dir the store persists on disk, so a restarted
   daemon still answers previously-seen binaries warm. The client
   subcommands compile a suite benchmark deterministically and send it,
   printing cache-hit= so scripts can assert warm answers.

   Exit codes: 0 success, 2 usage error, 3 runtime failure. *)

module Served = Janus_served_lib.Served
module Suite = Janus_suite.Suite
module Pipeline = Janus_core.Pipeline
module Pool = Janus_pool.Pool
module Obs = Janus_obs.Obs

let usage () =
  Fmt.epr
    "usage: janus_served serve --socket PATH [--store-dir DIR] \
     [--profile-dir DIR] [--jobs N]@.\
    \       janus_served analyse --socket PATH --bench NAME@.\
    \       janus_served schedule --socket PATH --bench NAME [--out FILE]@.\
    \       janus_served upload --socket PATH --file FILE.jprof@.\
    \       janus_served metrics --socket PATH@.\
    \       janus_served stop --socket PATH@.";
  exit 2

(* every valued flag shares one guard: a flag with no value — last
   argument included — is a usage error, never a silent default *)
let missing_value flag =
  Fmt.epr "janus_served: %s expects a value@." flag;
  exit 2

let parse_opts args =
  let opts = Hashtbl.create 8 in
  let valued =
    [ "--socket"; "--store-dir"; "--profile-dir"; "--jobs"; "--bench";
      "--out"; "--file" ]
  in
  let rec go = function
    | [] -> ()
    | flag :: rest when List.mem flag valued -> (
        match rest with
        | v :: rest when not (String.length v > 2 && String.sub v 0 2 = "--")
          ->
          Hashtbl.replace opts flag v;
          go rest
        | _ -> missing_value flag)
    | arg :: _ ->
      Fmt.epr "janus_served: unknown argument %S@." arg;
      exit 2
  in
  go args;
  opts

let required opts flag =
  match Hashtbl.find_opt opts flag with
  | Some v -> v
  | None ->
    Fmt.epr "janus_served: %s is required@." flag;
    exit 2

let jobs_of opts =
  match Hashtbl.find_opt opts "--jobs" with
  | None -> 1
  | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> n
      | _ ->
        Fmt.epr "janus_served: --jobs expects a positive integer, got %S@." n;
        exit 2)

let bench_of opts =
  let name = required opts "--bench" in
  match Suite.find name with
  | Some b -> b
  | None ->
    Fmt.epr "janus_served: unknown benchmark %S@." name;
    exit 2

let with_connection socket f =
  match Served.connect ~socket with
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "janus_served: cannot connect to %s: %s@." socket
      (Unix.error_message e);
    exit 3
  | c -> Fun.protect ~finally:(fun () -> Served.disconnect c) (fun () -> f c)

let cmd_serve opts =
  let socket = required opts "--socket" in
  (* a client that hangs up mid-reply must cost its own connection (an
     EPIPE, counted in served.errors), not the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Pipeline.store ?dir:(Hashtbl.find_opt opts "--store-dir") () in
  let profile_dir = Hashtbl.find_opt opts "--profile-dir" in
  let jobs = jobs_of opts in
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
  else serve None

let cmd_analyse opts =
  let b = bench_of opts in
  with_connection (required opts "--socket") (fun c ->
      let r = Served.analyse c (Suite.compile b) in
      Fmt.pr "bench=%s functions=%d loops=%d cache-hit=%b@." b.Suite.name
        r.Served.a_functions r.Served.a_loops r.Served.a_cache_hit)

let cmd_schedule opts =
  let b = bench_of opts in
  with_connection (required opts "--socket") (fun c ->
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
      match Hashtbl.find_opt opts "--out" with
      | None -> ()
      | Some path ->
        let oc = open_out_bin path in
        output_bytes oc r.Served.s_schedule;
        close_out oc)

let cmd_upload opts =
  let file = required opts "--file" in
  let payload =
    match
      In_channel.with_open_bin file (fun ic ->
          Bytes.of_string (In_channel.input_all ic))
    with
    | b -> b
    | exception Sys_error e ->
      Fmt.epr "janus_served: cannot read %s: %s@." file e;
      exit 3
  in
  with_connection (required opts "--socket") (fun c ->
      let r = Served.upload c payload in
      Fmt.pr "uploaded=%s image=%s runs=%d total-runs=%d@." file
        r.Served.u_image r.Served.u_runs r.Served.u_total_runs)

let cmd_metrics opts =
  with_connection (required opts "--socket") (fun c ->
      List.iter
        (fun (name, v) -> Fmt.pr "%s %d@." name v)
        (Served.metrics c))

let cmd_stop opts =
  with_connection (required opts "--socket") (fun c -> Served.shutdown c)

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let opts = parse_opts rest in
      let run f = try f opts with Failure e -> Fmt.epr "%s@." e; exit 3 in
      match cmd with
      | "serve" -> run cmd_serve
      | "analyse" -> run cmd_analyse
      | "schedule" -> run cmd_schedule
      | "upload" -> run cmd_upload
      | "metrics" -> run cmd_metrics
      | "stop" -> run cmd_stop
      | _ -> usage ())
  | _ -> usage ()
