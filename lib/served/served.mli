(** janus_served: a long-running analysis/schedule service over a unix
    socket.

    The daemon wraps the {!Janus_core.Pipeline} artifact store — in
    memory and, with a persistent directory, on disk — behind a tiny
    length-prefixed RPC protocol, so repeat requests for a binary the
    service has already seen (in this process or any earlier one
    sharing the store directory) are answered from the warm store
    without re-analysis or re-verification: the verifier's verdict is
    itself a store artifact ({!Janus_core.Pipeline.verify}). Artifacts
    are deterministic functions of their content keys, so a warm answer
    is byte-identical to a cold one.

    The protocol is Marshal payloads behind a magic-and-length frame
    header; the magic embeds the build stamp
    ({!Janus_core.Build_id.id}, a digest of the library sources), so a
    client from a different build fails cleanly at the first frame
    instead of decoding garbage. The server handles one connection at a time
    (requests are CPU-bound; concurrency comes from the domain pool
    {e inside} a request, not from interleaving requests). *)

module Pipeline = Janus_core.Pipeline
module Schedule = Janus_schedule.Schedule
module Image = Janus_vx.Image
module Obs = Janus_obs.Obs
module Pool = Janus_pool.Pool

(** {1 Replies} *)

type analyse_reply = {
  a_functions : int;
  a_loops : int;
  a_summary : string;     (** {!Janus_analysis.Analysis.pp_summary} text *)
  a_cache_hit : bool;     (** answered without recomputing any artifact *)
}

type schedule_reply = {
  s_schedule : bytes;     (** {!Schedule.to_bytes} of the (verified) schedule *)
  s_demoted : int list;   (** loops the verifier degraded to sequential *)
  s_findings : int;       (** verifier findings of any severity *)
  s_cache_hit : bool;
      (** every pipeline artifact, the verdict included, came from the
          store *)
  s_generation : string;  (** profile-store generation the schedule was
                              derived under; [""] when the daemon holds
                              no evidence for the binary *)
}

type upload_reply = {
  u_image : string;       (** image digest the profile was filed under *)
  u_runs : int;           (** run entries in the uploaded profile *)
  u_total_runs : int;     (** run entries stored for the image after merge *)
}

(** {1 Server} *)

type server

(** [create_server ~socket ()] binds and listens on [socket] (an
    existing socket file at that path is replaced). [store] is the
    artifact store answers come from — give it a persistent directory
    ({!Pipeline.store} [~dir]) to survive restarts; [pool] shards
    per-request analysis and verification; [obs] receives the
    [served.*] and [pipeline.cache.*] counters.

    [profile_dir] opens a persistent fleet-profile store
    ({!Janus_pgo.Pgo.Store}) there: clients push [.jprof] payloads with
    {!upload}, and every schedule request for a binary with stored
    evidence is answered from the merged aggregate
    ({!Janus_core.Pipeline.evidence}) instead of a fresh training
    profile — a restarted daemon keeps answering from everything every
    earlier run uploaded. Adds the [pgo.*] counters. Without
    [profile_dir], behaviour is byte-identical to the pgo-free daemon
    and uploads are refused. *)
val create_server :
  ?store:Pipeline.store ->
  ?pool:Pool.t ->
  ?obs:Obs.t ->
  ?profile_dir:string ->
  socket:string ->
  unit ->
  server

val server_socket : server -> string

(** Current counters: [served.*] request counters plus the store's
    [pipeline.cache.*] and the pool's [pool.*] gauges. *)
val server_metrics : server -> (string * int) list

(** Accept and answer connections until a [Shutdown] request arrives;
    then close the listener, remove the socket file and return. A
    malformed frame or an error while answering closes (or errors to)
    that connection and keeps serving. A client that hangs up mid-reply
    is one more [served.errors] when the process ignores SIGPIPE (as
    [janus_served] does); otherwise the signal ends the process. *)
val serve : server -> unit

(** {1 Client} *)

type connection

val connect : socket:string -> connection
val disconnect : connection -> unit

(** Ask the daemon to analyse [image]. Raises [Failure] on a protocol
    or server-side error. *)
val analyse : connection -> Image.t -> analyse_reply

(** Ask the daemon for a (verified, when [cfg.verify]) rewrite schedule
    for [image]. Raises [Failure] on a protocol or server-side error. *)
val schedule :
  connection ->
  ?cfg:Pipeline.config ->
  ?train_input:int64 list ->
  Image.t ->
  schedule_reply

(** Push a [.jprof] payload ({!Janus_pgo.Pgo.to_bytes}) into the
    daemon's profile store; it is merged with whatever the daemon
    already holds for that binary. Raises [Failure] when the daemon
    was started without [--profile-dir] or the payload is malformed. *)
val upload : connection -> bytes -> upload_reply

val metrics : connection -> (string * int) list

(** Stop the server (it answers, closes and returns from {!serve}). *)
val shutdown : connection -> unit
