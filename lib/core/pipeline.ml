(** The staged pipeline with its content-keyed artifact store; see
    pipeline.mli for the stage/artifact/key contract. *)

module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Depgraph = Janus_analysis.Depgraph
module Rulegen = Janus_analysis.Rulegen
module Profiler = Janus_profile.Profiler
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Jcc = Janus_jcc.Jcc
module Obs = Janus_obs.Obs
module Image = Janus_vx.Image
module Verify = Janus_verify.Verify

type config = {
  threads : int;
  use_profile : bool;
  use_checks : bool;
  use_doacross : bool;
  cov_threshold : float;
  trip_threshold : float;
  work_threshold : float;
  force_policy : Desc.policy option;
  stm_everywhere : bool;
  prefetch : bool;
  fission : bool;
  model_cache : bool;
  verify : bool;
  fuel : int;
  trace : bool;
  adapt : bool;
}

let config ?(threads = 8) ?(use_profile = true) ?(use_checks = true)
    ?(use_doacross = false) ?(cov_threshold = 0.03) ?(trip_threshold = 8.0)
    ?(work_threshold = 2500.0) ?force_policy ?(stm_everywhere = false)
    ?(prefetch = false) ?(fission = false) ?(model_cache = false)
    ?(verify = true) ?(fuel = 400_000_000) ?(trace = false)
    ?(adapt = false) () =
  { threads; use_profile; use_checks; use_doacross; cov_threshold;
    trip_threshold; work_threshold; force_policy; stm_everywhere;
    prefetch; fission; model_cache; verify; fuel; trace; adapt }

(* Aggregated fleet evidence (built by janus_pgo from a persistent
   profile store) substituted for the one-shot training profile. The
   generation digest is the only part the store layer reads: it enters
   the schedule key so warm caches invalidate when evidence shifts. *)
type evidence = {
  ev_coverage : Profiler.coverage option;
  ev_deps : Profiler.deps option;
  ev_suspect : int list;
  ev_generation : string;
}

(* ------------------------------------------------------------------ *)
(* The artifact store                                                  *)
(* ------------------------------------------------------------------ *)

type kstat = {
  mutable kh : int;  (* memory hits *)
  mutable km : int;  (* misses (computed) *)
  mutable kd : int;  (* disk hits *)
  mutable ke : int;  (* disk errors: corrupt/stale entries, failed writes *)
}

(* how a kind's artifact crosses the process boundary; [dec] may raise
   on any malformed input — the loader treats that as a miss *)
type 'v codec = { enc : 'v -> bytes; dec : bytes -> 'v }

type 'v table = {
  kind : string;
  codec : 'v codec;
  tbl : (string, 'v) Hashtbl.t;
  ks : kstat;
}

let table kind codec =
  { kind; codec; tbl = Hashtbl.create 16;
    ks = { kh = 0; km = 0; kd = 0; ke = 0 } }

(* Analysis/profile artifacts and verdicts are pure data (no closures,
   no custom blocks — records, lists, arrays, Hashtbls), so Marshal is
   a sound codec for them; images and schedules use their own byte
   formats. *)
let marshal_codec () =
  { enc = (fun v -> Marshal.to_bytes v []);
    dec = (fun b -> Marshal.from_bytes b 0) }

type store = {
  enabled : bool;
  dir : string option;  (* persistent layer root, when present *)
  mu : Mutex.t;
  images : Image.t table;
  analyses : Analysis.t table;
  profiles : (Profiler.coverage * Profiler.deps) table;
  schedules : Schedule.t table;
  verifieds : (Schedule.t * int list * Verify.finding list) table;
}

let store ?(enabled = true) ?dir () =
  Option.iter Envelope.mkdir_p dir;
  { enabled; dir; mu = Mutex.create ();
    images = table "image" { enc = Image.to_bytes; dec = Image.of_bytes };
    analyses = table "analysis" (marshal_codec ());
    profiles = table "profile" (marshal_codec ());
    schedules =
      table "schedule" { enc = Schedule.to_bytes; dec = Schedule.of_bytes };
    verifieds = table "verified" (marshal_codec ()) }

let default_store = store ()

let store_dir s = s.dir

let tables s =
  [ ("image", s.images.ks); ("analysis", s.analyses.ks);
    ("profile", s.profiles.ks);
    ("schedule", s.schedules.ks); ("verified", s.verifieds.ks) ]

let clear s =
  Mutex.lock s.mu;
  Hashtbl.reset s.images.tbl;
  Hashtbl.reset s.analyses.tbl;
  Hashtbl.reset s.profiles.tbl;
  Hashtbl.reset s.schedules.tbl;
  Hashtbl.reset s.verifieds.tbl;
  Mutex.unlock s.mu

type cache_stats = { hits : int; misses : int }

let cache_stats s =
  Mutex.lock s.mu;
  let r =
    List.fold_left
      (fun acc (_, ks) ->
         { hits = acc.hits + ks.kh + ks.kd; misses = acc.misses + ks.km })
      { hits = 0; misses = 0 } (tables s)
  in
  Mutex.unlock s.mu;
  r

type kind_stat = {
  k_kind : string;
  k_mem_hits : int;
  k_disk_hits : int;
  k_misses : int;
  k_disk_errors : int;
}

let kind_stats s =
  Mutex.lock s.mu;
  let r =
    List.map
      (fun (name, ks) ->
         { k_kind = name; k_mem_hits = ks.kh; k_disk_hits = ks.kd;
           k_misses = ks.km; k_disk_errors = ks.ke })
      (tables s)
  in
  Mutex.unlock s.mu;
  r

let publish_metrics s obs =
  let per_kind = kind_stats s in
  let sum f = List.fold_left (fun a k -> a + f k) 0 per_kind in
  Obs.set obs "pipeline.cache.hits" (sum (fun k -> k.k_mem_hits + k.k_disk_hits));
  Obs.set obs "pipeline.cache.misses" (sum (fun k -> k.k_misses));
  Obs.set obs "pipeline.cache.disk.hits" (sum (fun k -> k.k_disk_hits));
  Obs.set obs "pipeline.cache.disk.errors" (sum (fun k -> k.k_disk_errors));
  List.iter
    (fun k ->
       Obs.set obs (Printf.sprintf "pipeline.cache.%s.hits" k.k_kind)
         (k.k_mem_hits + k.k_disk_hits);
       Obs.set obs (Printf.sprintf "pipeline.cache.%s.misses" k.k_kind)
         k.k_misses;
       Obs.set obs (Printf.sprintf "pipeline.cache.%s.disk.hits" k.k_kind)
         k.k_disk_hits;
       Obs.set obs (Printf.sprintf "pipeline.cache.%s.disk.errors" k.k_kind)
         k.k_disk_errors)
    per_kind

(* ------------------------------------------------------------------ *)
(* The persistent layer                                                *)
(* ------------------------------------------------------------------ *)

(* One file per entry, named by the kind and the MD5 of the full
   content key: an [Envelope] with magic [JART1], the build stamp
   ([Build_id.id]) as its version line, and the kind and the full key
   as its fields. The full key is compared on load, so a filename-hash
   collision reads back as a miss, never as a wrong artifact. An entry
   from another build is an ordinary miss (its payload may [Marshal]
   types this build does not have); anything else malformed — bad
   magic, short file, digest mismatch, codec exception — is an
   [`Error]: counted, treated as a miss, and overwritten by the
   recomputed artifact. *)

let entry_magic = "JART1"

let entry_path dir kind key =
  Filename.concat dir
    (Printf.sprintf "%s-%s.jart" kind (Digest.to_hex (Digest.string key)))

let disk_load ~dir (t : 'v table) key : [ `Hit of 'v | `Miss | `Error ] =
  let path = entry_path dir t.kind key in
  if not (Sys.file_exists path) then `Miss
  else
    match
      Envelope.decode ~magic:entry_magic ~version:Build_id.id ~fields:2
        (Envelope.read_file path)
    with
    | Ok ([ kind; k ], payload) when kind = t.kind && k = key -> (
        match t.codec.dec (Bytes.of_string payload) with
        | v -> `Hit v
        | exception _ -> `Error)
    | Error Envelope.Stale -> `Miss
    | Ok _ | Error (Envelope.Corrupt _) | (exception Sys_error _) -> `Error

(* Concurrent writers of one key both publish the same (deterministic)
   artifact, so whichever rename lands last is benign. *)
let disk_save ~dir (t : 'v table) key v =
  match
    Envelope.publish (entry_path dir t.kind key)
      (Envelope.encode ~magic:entry_magic ~version:Build_id.id [ t.kind; key ]
         (Bytes.to_string (t.codec.enc v)))
  with
  | () -> true
  | exception _ -> false

(* Memoise [f ()] under [key]: memory first, then the persistent layer
   (when the store has one), then compute — and on compute, publish to
   both layers. The computation and all file I/O run outside the lock
   so other domains are never blocked on them; two domains may race to
   compute the same key, but artifacts are deterministic functions of
   their key, so both compute the same value and last-write-wins is
   benign. A disabled store still counts every recomputation as a miss
   (the [--no-cache] counters then report the cold-pipeline cost). *)
let memo s (t : _ table) key f =
  if not s.enabled then begin
    Mutex.lock s.mu;
    t.ks.km <- t.ks.km + 1;
    Mutex.unlock s.mu;
    f ()
  end
  else begin
    Mutex.lock s.mu;
    match Hashtbl.find_opt t.tbl key with
    | Some v ->
      t.ks.kh <- t.ks.kh + 1;
      Mutex.unlock s.mu;
      v
    | None ->
      Mutex.unlock s.mu;
      let from_disk =
        match s.dir with
        | Some dir -> disk_load ~dir t key
        | None -> `Miss
      in
      match from_disk with
      | `Hit v ->
        Mutex.lock s.mu;
        t.ks.kd <- t.ks.kd + 1;
        Hashtbl.replace t.tbl key v;
        Mutex.unlock s.mu;
        v
      | (`Miss | `Error) as r ->
        Mutex.lock s.mu;
        t.ks.km <- t.ks.km + 1;
        if r = `Error then t.ks.ke <- t.ks.ke + 1;
        Mutex.unlock s.mu;
        let v = f () in
        Mutex.lock s.mu;
        Hashtbl.replace t.tbl key v;
        Mutex.unlock s.mu;
        (match s.dir with
         | Some dir when not (disk_save ~dir t key v) ->
           Mutex.lock s.mu;
           t.ks.ke <- t.ks.ke + 1;
           Mutex.unlock s.mu
         | _ -> ());
        v
  end

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)
(* ------------------------------------------------------------------ *)

let image_key img = Digest.to_hex (Digest.bytes (Image.to_bytes img))

let input_key input = String.concat "," (List.map Int64.to_string input)

let policy_key = function
  | None -> "-"
  | Some Desc.Chunked -> "chunked"
  | Some (Desc.Round_robin n) -> Printf.sprintf "rr:%d" n
  | Some (Desc.Doacross n) -> Printf.sprintf "da:%d" n

(* the config fields that loop selection and rule generation read; the
   schedule key quotes exactly these, so two configs differing only in
   execute-stage fields (threads, stm, tracing, cache model) share one
   cached schedule *)
let selection_key cfg =
  Printf.sprintf "p=%b;c=%b;da=%b;cov=%h;trip=%h;work=%h;pol=%s;pf=%b;fi=%b"
    cfg.use_profile cfg.use_checks cfg.use_doacross cfg.cov_threshold
    cfg.trip_threshold cfg.work_threshold (policy_key cfg.force_policy)
    cfg.prefetch cfg.fission

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

let compile ?(store = default_store) ?(options = Jcc.default_options) source =
  let key =
    Printf.sprintf "%s|v=%s;o=%d;avx=%b;ap=%d"
      (Digest.to_hex (Digest.string source))
      (match options.Jcc.vendor with Jcc.Gcc -> "gcc" | Jcc.Icc -> "icc")
      options.Jcc.opt options.Jcc.avx options.Jcc.autopar
  in
  memo store store.images key (fun () -> Jcc.compile ~options source)

let analyse ?(store = default_store) ?pool image =
  memo store store.analyses (image_key image) (fun () ->
      Analysis.analyse_image ?pool image)

let profile ?(store = default_store) ~cfg ~train_input image analysis =
  if not (cfg.use_profile || cfg.use_checks) then (None, None)
  else
    let coverage, deps =
      memo store store.profiles
        (Printf.sprintf "%s|fuel=%d|in=%s" (image_key image) cfg.fuel
           (input_key train_input))
        (fun () ->
           Profiler.run ~fuel:cfg.fuel ~input:train_input image analysis)
    in
    ((if cfg.use_profile then Some coverage else None),
     if cfg.use_checks then Some deps else None)

type selection = {
  chosen : (Loopanal.report * Desc.policy) list;
  rejected : (int * string) list;
}

let select ~cfg (analysis : Analysis.t) ~(coverage : Profiler.coverage option)
    ~(deps : Profiler.deps option) =
  let chosen = ref [] in
  let rejected = ref [] in
  List.iter
    (fun (r : Loopanal.report) ->
       let lid = r.Loopanal.loop.Janus_analysis.Looptree.lid in
       let reject reason = rejected := (lid, reason) :: !rejected in
       let profile_ok () =
         if not cfg.use_profile then true
         else
           match coverage with
           | None -> true
           | Some cov ->
             Profiler.fraction cov lid >= cfg.cov_threshold
             && Profiler.avg_trip cov lid >= cfg.trip_threshold
             && Profiler.avg_work cov lid >= cfg.work_threshold
       in
       let accept policy =
         if not (profile_ok ()) then reject "filtered by profile"
         else
           let policy =
             match cfg.force_policy with Some p -> p | None -> policy
           in
           chosen := (r, policy) :: !chosen
       in
       match Analysis.eligibility r with
       (* fission first: a Static-Dependence loop that distributes into
          a DOALL product plus a sequential residue is worth more than
          DOACROSS chunk hand-off, and the profile gate still applies *)
       | (Analysis.Eligible_doacross _ | Analysis.Not_eligible _)
         when cfg.fission
              && (match r.Loopanal.cls with
                  | Loopanal.Static_dep _ -> Depgraph.plan r <> None
                  | _ -> false) ->
         accept Desc.Chunked
       | Analysis.Not_eligible reason -> reject reason
       | Analysis.Eligible_dynamic _ when not cfg.use_checks ->
         reject "dynamic loop (checks disabled)"
       | Analysis.Eligible_dynamic _
         when (match deps with
             | Some d -> Profiler.has_dep d lid
             | None -> false) ->
         reject "dependence observed during profiling"
       | Analysis.Eligible_doacross _ when not cfg.use_doacross ->
         reject "static dependence (doacross disabled)"
       | Analysis.Eligible_doacross pct ->
         (* the overlappable work must dwarf the per-invocation thread
            and hand-off overheads, or DOACROSS only adds cost (the
            "synchronisation overheads" the paper's future work warns
            about) *)
         let overlappable =
           match coverage with
           | Some cov ->
             Profiler.avg_work cov lid
             *. (1.0 -. (float_of_int pct /. 100.0))
           | None -> infinity
         in
         if cfg.use_profile && overlappable < 12_000.0 then
           reject "doacross not profitable"
         else accept (Desc.Doacross pct)
       | Analysis.Eligible_static | Analysis.Eligible_dynamic _ ->
         accept Desc.Chunked)
    analysis.Analysis.reports;
  { chosen = List.rev !chosen; rejected = List.rev !rejected }

let schedule ?(store = default_store) ?evidence ~cfg ~train_input image
    (analysis : Analysis.t) (selection : selection) =
  (* with fleet evidence attached, the profile-store generation joins
     the key: a warm cache serves the old schedule only while the
     merged evidence is unchanged. No evidence = the exact pgo-free
     key string, so the subsystem is inert when unused. *)
  let gen =
    match evidence with
    | None -> ""
    | Some e -> Printf.sprintf "|gen=%s" e.ev_generation
  in
  let key =
    Printf.sprintf "%s|fuel=%d|in=%s|%s%s" (image_key image) cfg.fuel
      (input_key train_input) (selection_key cfg) gen
  in
  memo store store.schedules key (fun () ->
      fst
        (Rulegen.parallel_schedule ~prefetch:cfg.prefetch ~fission:cfg.fission
           analysis.Analysis.cfg selection.chosen))

(* The verifier's verdict is a pure function of the image and the
   schedule's bytes, as static as the schedule itself, so it is an
   artifact like any other: computed once per (image, schedule) and
   then a lookup. [Verify.version] in the key names the rule set the
   verdict was reached under. *)
let verify ?(store = default_store) ?pool image schedule =
  let key =
    Printf.sprintf "%s|sched=%s|verify=%s" (image_key image)
      (Digest.to_hex (Digest.bytes (Schedule.to_bytes schedule)))
      Verify.version
  in
  memo store store.verifieds key (fun () ->
      Verify.check_and_demote ?pool image schedule)
