(** The schedule service: framing, request dispatch, warm-store
    answers; see served.mli for the protocol contract. *)

module Pipeline = Janus_core.Pipeline
module Janus = Janus_core.Janus
module Analysis = Janus_analysis.Analysis
module Cfg = Janus_analysis.Cfg
module Schedule = Janus_schedule.Schedule
module Image = Janus_vx.Image
module Obs = Janus_obs.Obs
module Pool = Janus_pool.Pool
module Pgo = Janus_pgo.Pgo

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* The magic embeds the build stamp, which moves with every library
   source change: a frame from a different build fails the magic
   comparison before any Marshal decoding happens. *)
let frame_magic = Printf.sprintf "JSRV1/%s\n" Janus_core.Build_id.id

(* generous bound on one frame: images and schedules are small; a
   length beyond this means a corrupt or hostile header *)
let max_frame = 1 lsl 26

let send_frame oc v =
  let payload = Marshal.to_bytes v [] in
  output_string oc frame_magic;
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length payload));
  output_bytes oc hdr;
  output_bytes oc payload;
  flush oc

let recv_frame ic =
  let m = really_input_string ic (String.length frame_magic) in
  if m <> frame_magic then failwith "bad frame magic (version mismatch?)";
  let hdr = Bytes.create 4 in
  really_input ic hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame then failwith "bad frame length";
  let payload = Bytes.create len in
  really_input ic payload 0 len;
  Marshal.from_bytes payload 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

type analyse_reply = {
  a_functions : int;
  a_loops : int;
  a_summary : string;
  a_cache_hit : bool;
}

type schedule_reply = {
  s_schedule : bytes;
  s_demoted : int list;
  s_findings : int;
  s_cache_hit : bool;
  s_generation : string;
}

type upload_reply = { u_image : string; u_runs : int; u_total_runs : int }

(* images travel as [Image.to_bytes] so the decoder — not Marshal —
   validates them on arrival *)
type request =
  | Analyse of { q_image : bytes }
  | Sched of {
      q_image : bytes;
      q_cfg : Pipeline.config;
      q_train_input : int64 list;
    }
  | Upload of { u_profile : bytes }
      (* a [.jprof] payload; the versioned codec — not Marshal —
         validates it on arrival *)
  | Metrics
  | Shutdown

type reply =
  | R_analyse of analyse_reply
  | R_schedule of schedule_reply
  | R_upload of upload_reply
  | R_metrics of (string * int) list
  | R_error of string
  | R_bye

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

type server = {
  socket_path : string;
  store : Pipeline.store;
  pool : Pool.t option;
  obs : Obs.t;
  profiles : Pgo.Store.t option;
  listener : Unix.file_descr;
}

let create_server ?(store = Pipeline.default_store) ?pool
    ?(obs = Obs.create ()) ?profile_dir ~socket () =
  if Sys.file_exists socket then Sys.remove socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 16;
  let profiles = Option.map Pgo.Store.open_ profile_dir in
  { socket_path = socket; store; pool; obs; profiles; listener = fd }

let server_socket t = t.socket_path

let server_metrics t =
  Pipeline.publish_metrics t.store t.obs;
  Option.iter (fun p -> Pool.publish_metrics p t.obs) t.pool;
  Option.iter
    (fun ps -> Obs.set t.obs "pgo.store.errors" (Pgo.Store.errors ps))
    t.profiles;
  Obs.counters t.obs

(* Did the work between [before] and now touch anything cold? The
   server answers one request at a time, so a stable miss counter means
   every artifact the request needed came from the warm store. *)
let warm_since t (before : Pipeline.cache_stats) =
  (Pipeline.cache_stats t.store).Pipeline.misses = before.Pipeline.misses

let handle_analyse t q_image =
  let image = Image.of_bytes q_image in
  let before = Pipeline.cache_stats t.store in
  let analysis = Pipeline.analyse ~store:t.store ?pool:t.pool image in
  let hit = warm_since t before in
  if hit then Obs.incr t.obs "served.store_hits";
  R_analyse
    {
      a_functions = List.length (Cfg.all_funcs analysis.Analysis.cfg);
      a_loops = List.length analysis.Analysis.reports;
      a_summary = Fmt.str "%a" Analysis.pp_summary analysis;
      a_cache_hit = hit;
    }

let handle_schedule t q_image q_cfg q_train_input =
  let image = Image.of_bytes q_image in
  let before = Pipeline.cache_stats t.store in
  (* schedule from the fleet aggregate when the profile store holds
     evidence for this binary; the evidence generation enters the
     pipeline's schedule key, so a warm store re-derives exactly when
     the merged evidence shifts *)
  let evidence =
    match t.profiles with
    | None -> None
    | Some ps ->
      Pgo.Store.evidence_for ps ~image:(Pipeline.image_key image)
  in
  if evidence <> None then Obs.incr t.obs "pgo.evidence";
  let p =
    Janus.prepare ~cfg:q_cfg ~train_input:q_train_input ?evidence
      ~store:t.store ?pool:t.pool image
  in
  (* the verdict is a store artifact like the schedule it judges, so a
     warm answer is a lookup, byte-identical to a cold one *)
  let schedule, demoted, findings =
    Janus.gate ~cfg:q_cfg ~store:t.store ?pool:t.pool image p.Janus.p_schedule
  in
  let hit = warm_since t before in
  if hit then Obs.incr t.obs "served.store_hits";
  R_schedule
    {
      s_schedule = Schedule.to_bytes schedule;
      s_demoted = demoted;
      s_findings = List.length findings;
      s_cache_hit = hit;
      s_generation =
        (match evidence with
        | Some e -> e.Pipeline.ev_generation
        | None -> "");
    }

let handle_upload t u_profile =
  match t.profiles with
  | None -> R_error "janus_served: started without --profile-dir"
  | Some ps ->
    let prof = Pgo.of_bytes u_profile in
    let merged = Pgo.Store.save ps prof in
    Obs.incr t.obs "pgo.ingested";
    Obs.incr t.obs ~by:(Pgo.runs prof) "pgo.runs";
    R_upload
      {
        u_image = prof.Pgo.p_image;
        u_runs = Pgo.runs prof;
        u_total_runs = Pgo.runs merged;
      }

let handle t = function
  | Analyse { q_image } ->
    Obs.incr t.obs "served.analyse";
    handle_analyse t q_image
  | Sched { q_image; q_cfg; q_train_input } ->
    Obs.incr t.obs "served.schedule";
    handle_schedule t q_image q_cfg q_train_input
  | Upload { u_profile } ->
    Obs.incr t.obs "served.upload";
    handle_upload t u_profile
  | Metrics ->
    Obs.incr t.obs "served.metrics";
    R_metrics (server_metrics t)
  | Shutdown -> R_bye

let serve t =
  let stop = ref false in
  while not !stop do
    let client, _ = Unix.accept t.listener in
    Obs.incr t.obs "served.connections";
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    (* drain this connection's requests; any framing error or EOF ends
       the connection, never the server *)
    (try
       let connected = ref true in
       while !connected && not !stop do
         match recv_frame ic with
         | exception End_of_file -> connected := false
         | Shutdown ->
           Obs.incr t.obs "served.requests";
           send_frame oc R_bye;
           stop := true
         | req ->
           Obs.incr t.obs "served.requests";
           let reply =
             try handle t req
             with e ->
               Obs.incr t.obs "served.errors";
               R_error (Printexc.to_string e)
           in
           send_frame oc reply
       done
     with _ -> Obs.incr t.obs "served.errors");
    (* both channels wrap one descriptor: close it exactly once, through
       the output channel (flush, then close). Closing [ic] too would
       hit whatever reused the number in between — in a process with
       other sockets, someone else's live connection. *)
    close_out_noerr oc
  done;
  Unix.close t.listener;
  if Sys.file_exists t.socket_path then Sys.remove t.socket_path

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

type connection = { c_ic : in_channel; c_oc : out_channel }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e -> Unix.close fd; raise e);
  { c_ic = Unix.in_channel_of_descr fd; c_oc = Unix.out_channel_of_descr fd }

(* one close for the one descriptor, as in [serve] *)
let disconnect c = close_out_noerr c.c_oc

let rpc c (req : request) : reply =
  send_frame c.c_oc req;
  recv_frame c.c_ic

let fail_reply what = function
  | R_error e -> failwith ("janus_served: " ^ e)
  | _ -> failwith ("janus_served: unexpected reply to " ^ what)

let analyse c image =
  match rpc c (Analyse { q_image = Image.to_bytes image }) with
  | R_analyse r -> r
  | r -> fail_reply "analyse" r

let schedule c ?(cfg = Pipeline.config ()) ?(train_input = []) image =
  match
    rpc c
      (Sched
         { q_image = Image.to_bytes image; q_cfg = cfg;
           q_train_input = train_input })
  with
  | R_schedule r -> r
  | r -> fail_reply "schedule" r

let upload c payload =
  match rpc c (Upload { u_profile = payload }) with
  | R_upload r -> r
  | r -> fail_reply "upload" r

let metrics c =
  match rpc c Metrics with
  | R_metrics m -> m
  | r -> fail_reply "metrics" r

let shutdown c =
  match rpc c Shutdown with R_bye -> () | r -> fail_reply "shutdown" r
