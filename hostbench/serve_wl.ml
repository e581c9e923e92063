(* The [serve] workload: static stages, the artifact store and the wire,
   with writes beside reads. [janus_served serve] runs as its own
   process on fresh store and profile directories; one connection sends
   a seeded closed-loop stream of a fixed number of schedule requests
   (default config, training input) over the 28 suite programs compiled
   four ways, with skewed popularity so first-sight misses and repeat
   hits both recur. Uploads of .jprof payloads that [Pgo.collect] made
   during set-up from seeded fleet inputs are interleaved with the
   requests; each shifts its binary's evidence generation, so the next
   request for it re-derives its schedule (on adv.alias the fleet input
   aliases, which flips the hot loop's verdict). The daemon restarts
   once, half-way, on the same directories, so later repeats are
   answered from the disk layer. *)

module Suite = Janus_suite.Suite
module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Jcc = Janus_jcc.Jcc
module Pgo = Janus_pgo.Pgo
module Served = Janus_served_lib.Served
module Schedule = Janus_schedule.Schedule
module Verify = Janus_verify.Verify
module Run = Janus_vm.Run

let option_sets =
  [ ("gcc-O3", Jcc.default_options);
    ("icc-O3", { Jcc.default_options with Jcc.vendor = Jcc.Icc });
    ("gcc-O2", { Jcc.default_options with Jcc.opt = 2 });
    ("gcc-O3-avx", { Jcc.default_options with Jcc.avx = true }) ]

(* popularity rank is the position in this order: option set first,
   then program *)
let programs = Suite.adversarial @ [ Suite.adv_fission ] @ Suite.all

(* The traffic follows from three aims.
   - Every image is seen cold, warm, and warm from disk after the
     restart. Popularity follows Zipf's law in its classic form
     (exponent 1): at the request count of a 15 s run (4,950) the least
     popular of the 112 binaries still gets about four requests in each
     half, and all are first seen within the first ~600 requests.
   - Misses recur over the whole run, not only while binaries are first
     seen: every upload carries fleet runs the daemon has not seen, so
     it shifts its binary's evidence generation and that binary's next
     request re-derives the schedule. The targets are the
     [upload_targets] most popular binaries, each requested at least
     once every ~32 requests, so each upload's miss follows it well
     before the next upload.
   - [fleet_inputs] payloads per target, evenly spaced over the run:
     24 uploads, half on each side of the restart, each a generation
     shift.
   So, given enough requests, a run makes 91 first-sight misses (the
   112 binaries hold 91 distinct images: some programs compile the same
   under several option sets), up to 24 generation-shift misses (fewer
   when two fleet inputs of a target coincide) and 24 uploads, and
   every other request is a hit. *)
let zipf_s = 1.0
let upload_targets = 6
let fleet_inputs = 4

(* The run's request count is fixed by [--seconds] at the rate this
   workload ran at when it was written (2-vCPU x86-64 VM), not by the
   time the requests take, so code of any speed serves the same
   traffic. *)
let nominal_rate = 330.0

let requests : Common.budget -> int = function
  | `Ops k -> k
  | `Time s -> int_of_float (Float.round (nominal_rate *. s))

let cfg = Pipeline.config ()

type binary = {
  name : string;
  bench : Suite.benchmark;
  image : Janus_vx.Image.t;
  digest : string;
}

type payload = { p_binary : binary; p_bytes : bytes; p_profile : Pgo.t }

let compile ?trace () =
  List.concat_map
    (fun (oname, options) ->
       List.map
         (fun (b : Suite.benchmark) ->
            let image =
              match trace with
              | None -> Suite.compile ~options b
              | Some t ->
                Trace.add t "jcc.calls" 1.0;
                Trace.span t "jcc" (fun () -> Suite.compile ~options b)
            in
            { name = b.Suite.name ^ "@" ^ oname; bench = b; image;
              digest = Pipeline.image_key image })
         programs)
    option_sets

(* A fleet input between 1.25x and 2x the training scale (on adv.alias
   that is past invocation 48, where its call sites start aliasing). *)
let fleet_input rng (b : Suite.benchmark) =
  let t = Int64.to_int b.Suite.train_scale in
  [ Int64.of_int (t + (t / 4) + Random.State.int rng ((3 * t / 4) + 1)) ]

let collect ~dir ~seed binaries =
  let rng = Random.State.make [| seed; 7 |] in
  List.concat_map
    (fun j ->
       let x = List.nth binaries j in
       List.map
         (fun k ->
            let d = Filename.concat dir (Printf.sprintf "p%d-%d" j k) in
            let p =
              Pgo.collect ~store:(Pgo.Store.open_ d)
                ~input:(fleet_input rng x.bench) x.image
            in
            { p_binary = x; p_bytes = Pgo.to_bytes p; p_profile = p })
         (List.init fleet_inputs Fun.id))
    (List.init upload_targets Fun.id)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

type daemon = { pid : int; conn : Served.connection }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let accepts socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       match Unix.connect fd (Unix.ADDR_UNIX socket) with
       | () -> true
       | exception Unix.Unix_error _ -> false)

let start ~exe ~dir =
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket;
         "--store-dir"; Filename.concat dir "store";
         "--profile-dir"; Filename.concat dir "profiles" |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let deadline = Common.now () +. 60.0 in
  while not (Sys.file_exists socket && accepts socket) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> failwith "janus_served exited during start-up");
    if Common.now () > deadline then failwith "janus_served did not start";
    Unix.sleepf 0.002
  done;
  { pid; conn = Served.connect ~socket }

(* Stop a daemon; returns its counters and peak resident set. *)
let stop d =
  let counters = Served.metrics d.conn in
  let rss = Common.peak_rss_mb (string_of_int d.pid) in
  Served.shutdown d.conn;
  Served.disconnect d.conn;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  (counters, rss)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* ------------------------------------------------------------------ *)
(* References                                                          *)

type expected = {
  e_bytes : bytes;
  e_demoted : int list;
  e_findings : int;
  e_generation : string;
}

(* What the daemon must answer, computed in-process. *)
let reference_reply ~store ?evidence (x : binary) =
  let p =
    Janus.prepare ~cfg ~train_input:(Suite.train_input x.bench) ?evidence
      ~store x.image
  in
  let s, demoted, findings = Verify.check_and_demote x.image p.Janus.p_schedule in
  { e_bytes = Schedule.to_bytes s; e_demoted = demoted;
    e_findings = List.length findings;
    e_generation =
      (match evidence with Some e -> e.Pipeline.ev_generation | None -> "") }

let check_reply ~(expected : expected) (r : Served.schedule_reply) =
  Common.labels
    (List.filter_map Fun.id
       [ (if not (Bytes.equal r.Served.s_schedule expected.e_bytes) then
            Some "reply_bytes"
          else None);
         (if r.Served.s_demoted <> expected.e_demoted
             || r.Served.s_findings <> expected.e_findings
          then Some "verify"
          else None);
         (if r.Served.s_generation <> expected.e_generation then
            Some "generation"
          else None) ])

(* Deploy a reply's schedule on the training input; it must agree with
   lib/vm's native run. *)
let deploy (x : binary) bytes =
  let input = Suite.train_input x.bench in
  let native = Run.run ~input x.image in
  let r = Janus.run_scheduled ~cfg ~input x.image (Schedule.of_bytes bytes) in
  if r.Janus.output <> native.Run.output
     || r.Janus.exit_code <> native.Run.exit_code
     || r.Janus.mem_digest <> native.Run.mem_digest
     || r.Janus.aborted <> None
  then Some "deploy"
  else None

(* A request op: the reply must match the in-process reference, its
   [s_cache_hit] must match the first-sight expectation, and its
   schedule must deploy ([deploy] receives the reply's digest and
   bytes). A refused or errored request is a failed op. *)
let request_op ~id ~ms ~first ~expected ~deploy r =
  let fail, print =
    match r with
    | Error e -> (Some (Common.exn_label e), "error")
    | Ok reply ->
      let dig = Digest.to_hex (Digest.bytes reply.Served.s_schedule) in
      let hit =
        if reply.Served.s_cache_hit = not first then [] else [ "cache_hit" ]
      in
      ( Common.labels
          (Option.to_list (check_reply ~expected reply)
           @ hit
           @ Option.to_list (deploy dig reply.Served.s_schedule)),
        dig )
  in
  Common.op ~kind:(if first then "miss" else "hit") ?fail ~id ~ms print

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

(* The request stream: binary [r] (by popularity rank) has weight
   1/(r+1)^zipf_s, and requests follow stride scheduling — each binary's
   next turn comes 1/weight after its last, from a seeded starting
   offset — so every prefix of the stream holds each binary within one
   request of its expected share, and the seed moves only the order
   (and with it when each rare binary is first seen). *)
let request_stream ~seed n =
  let rng = Random.State.make [| seed |] in
  let stride = Array.init n (fun r -> float_of_int (r + 1) ** zipf_s) in
  let next = Array.map (fun s -> Random.State.float rng s) stride in
  fun () ->
    let best = ref 0 in
    Array.iteri (fun i v -> if v < next.(!best) then best := i) next;
    next.(!best) <- next.(!best) +. stride.(!best);
    !best

type action = Request of binary | Upload of payload

(* The [n] ops of a run: upload [u] of [P] (a seeded order of the
   payloads) at op (2u+1)n/2P, requests from the stream elsewhere. *)
let plan ~seed ~n bins payloads =
  let pick = request_stream ~seed (Array.length bins) in
  let order =
    Suite_wl.shuffle (Random.State.make [| seed; 11 |]) (Array.of_list payloads)
  in
  let m = Array.length order in
  let at = Hashtbl.create 32 in
  Array.iteri (fun u p -> Hashtbl.replace at ((2 * u + 1) * n / (2 * m)) p) order;
  Array.init n (fun j ->
      match Hashtbl.find_opt at j with
      | Some p -> Upload p
      | None -> Request bins.(pick ()))

(* [Served.schedule] replayed in-process as its public parts, on a
   profile store and an artifact store in the daemon's state: evidence
   from the profile store, the Pipeline stages, verification and
   [Schedule.to_bytes]. With [trace], each part runs in its layer's
   span. *)
let replay_schedule ?trace ~store ~profiles (x : binary) =
  let train_input = Suite.train_input x.bench in
  match trace with
  | None ->
    let evidence = Pgo.Store.evidence_for profiles ~image:x.digest in
    let p = Janus.prepare ~cfg ~train_input ?evidence ~store x.image in
    let s, _, _ = Verify.check_and_demote x.image p.Janus.p_schedule in
    Schedule.to_bytes s
  | Some t ->
    let evidence =
      Trace.span t "pgo" (fun () -> Pgo.Store.evidence_for profiles ~image:x.digest)
    in
    let p = Ledger.prepare t ~store ~cfg ~train_input ?evidence x.image in
    let s, _, _ = Ledger.verify t x.image p.Janus.p_schedule in
    Trace.span t "schedule" (fun () -> Schedule.to_bytes s)

(* An upload replayed: [Pgo.of_bytes] + [Pgo.Store.save]; the merged
   profile's run count. *)
let replay_upload ?trace profiles bytes =
  let ingest () = Pgo.runs (Pgo.Store.save profiles (Pgo.of_bytes bytes)) in
  match trace with None -> ingest () | Some t -> Trace.span t "pgo" ingest

let run ~daemon:exe ~out ~seed ~(budget : Common.budget) ~traced =
  let t = Trace.create () in
  let dir = Filename.concat out (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  let setup k =
    let sdir = Filename.concat dir (Printf.sprintf "setup%d" k) in
    mkdir_p sdir;
    (* Pgo.collect analyses on the process-wide store: start each
       repetition cold *)
    Pipeline.clear Pipeline.default_store;
    let binaries = compile ?trace:(if traced then Some t else None) () in
    let payloads = collect ~dir:(Filename.concat sdir "payloads") ~seed binaries in
    let d = start ~exe ~dir:sdir in
    (sdir, binaries, payloads, d)
  in
  let reps = if traced then 1 else 3 in
  let env = ref None and setup_times = ref [] in
  for k = 0 to reps - 1 do
    Option.iter (fun (_, _, _, d) -> ignore (stop d)) !env;
    let t0 = Common.now () in
    env :=
      Some (if traced then Trace.setup t (fun () -> setup k) else setup k);
    setup_times := Common.at_reference (Common.now () -. t0) :: !setup_times
  done;
  let sdir, binaries, payloads, d0 = Option.get !env in
  let n = requests budget in
  let plan = plan ~seed ~n (Array.of_list binaries) payloads in
  (* the benchmark's own view: merged uploads per image, keys seen *)
  let merged = Hashtbl.create 16 and seen = Hashtbl.create 128 in
  let ref_store = Pipeline.store () in
  let expected = Hashtbl.create 128 and deployed = Hashtbl.create 128 in
  (* a traced run replays every op twice in-process, with spans and
     without, each on its own stores kept in the daemon's state *)
  let mirror name = Filename.concat sdir ("mirror-" ^ name) in
  let open_mirrors () =
    (Pipeline.store ~dir:(mirror "traced") (), Pipeline.store ~dir:(mirror "plain") ())
  in
  let mirrors = ref (open_mirrors ()) in
  let pgo_traced = Pgo.Store.open_ (mirror "traced-profiles")
  and pgo_plain = Pgo.Store.open_ (mirror "plain-profiles") in
  let store_for trace =
    let traced_store, plain_store = !mirrors in
    if Option.is_some trace then traced_store else plain_store
  in
  let profiles_for trace = if Option.is_some trace then pgo_traced else pgo_plain in
  let daemon = ref d0 and counters = ref [] and rss = ref 0.0 in
  let restart_s = ref 0.0 in
  let finish_daemon () =
    let c, r = stop !daemon in
    counters := c :: !counters;
    rss := Float.max !rss r
  in
  let ops = ref [] and overhead = ref [] and ingest = ref [] and notes = ref [] in
  let traced_ms = ref 0.0 and untraced_ms = ref 0.0 in
  let timed f =
    let t0 = Common.now () in
    let r = try Ok (f ()) with e -> Error e in
    (r, 1000.0 *. (Common.now () -. t0))
  in
  (* In a traced run: the daemon's answer [r] (timed outside any span)
     is followed by the op's replay with spans, rooted in the op's span,
     and without; both must reproduce [same r], and the replay without
     spans is the in-process service time the request is compared to. *)
  let replayed ~id ~j ~ms r ~same replay =
    let t0 = Common.now () in
    let v_traced = Trace.op t j (fun () -> replay (Some t)) in
    let t1 = Common.now () in
    let v_plain = replay None in
    let t2 = Common.now () in
    traced_ms := !traced_ms +. (1000.0 *. (t1 -. t0));
    untraced_ms := !untraced_ms +. (1000.0 *. (t2 -. t1));
    overhead := (ms -. (1000.0 *. (t2 -. t1))) :: !overhead;
    (match r with
     | Ok v when same v v_traced && same v v_plain -> ()
     | _ -> notes := Printf.sprintf "replay of %s differs from its reply" id :: !notes);
    1000.0 *. (t2 -. t1)
  in
  Array.iteri
    (fun j action ->
       if j = n / 2 then begin
         let t0 = Common.now () in
         finish_daemon ();
         daemon := start ~exe ~dir:sdir;
         restart_s := Common.at_reference (Common.now () -. t0);
         mirrors := open_mirrors ()
       end;
       let id = Printf.sprintf "req%d" j in
       let o =
         match action with
         | Upload p ->
           let x = p.p_binary in
           let r, ms = timed (fun () -> Served.upload !daemon.conn p.p_bytes) in
           let m =
             match Hashtbl.find_opt merged x.digest with
             | Some m -> Pgo.merge m p.p_profile
             | None -> p.p_profile
           in
           Hashtbl.replace merged x.digest m;
           if traced then
             ingest :=
               replayed ~id ~j ~ms r
                 ~same:(fun u runs -> u.Served.u_total_runs = runs)
                 (fun trace -> replay_upload ?trace (profiles_for trace) p.p_bytes)
               :: !ingest;
           let fail =
             match r with
             | Error e -> Some (Common.exn_label e)
             | Ok u ->
               if u.Served.u_image <> x.digest
                  || u.Served.u_runs <> Pgo.runs p.p_profile
                  || u.Served.u_total_runs <> Pgo.runs m
               then Some "upload"
               else None
           in
           Common.op ~kind:"upload" ?fail ~id ~ms
             (Printf.sprintf "upload %s %d" x.name (Pgo.runs m))
         | Request x ->
           let train_input = Suite.train_input x.bench in
           let evidence = Option.map Pgo.evidence (Hashtbl.find_opt merged x.digest) in
           let gen = match evidence with Some e -> e.Pipeline.ev_generation | None -> "" in
           let key = (x.digest, train_input, gen) in
           let first = not (Hashtbl.mem seen key) in
           Hashtbl.replace seen key ();
           let r, ms =
             timed (fun () -> Served.schedule !daemon.conn ~cfg ~train_input x.image)
           in
           if traced then
             ignore
               (replayed ~id ~j ~ms r
                  ~same:(fun reply bytes -> Bytes.equal reply.Served.s_schedule bytes)
                  (fun trace ->
                     replay_schedule ?trace ~store:(store_for trace)
                       ~profiles:(profiles_for trace) x));
           let exp =
             match Hashtbl.find_opt expected key with
             | Some e -> e
             | None ->
               let e = reference_reply ~store:ref_store ?evidence x in
               Hashtbl.replace expected key e;
               e
           in
           let deploy dig bytes =
             match Hashtbl.find_opt deployed dig with
             | Some f -> f
             | None ->
               let f = deploy x bytes in
               Hashtbl.replace deployed dig f;
               f
           in
           request_op ~id ~ms ~first ~expected:exp ~deploy r
       in
       ops := o :: !ops)
    plan;
  finish_daemon ();
  rm_rf dir;
  let ops = List.rev !ops in
  let counter name =
    List.fold_left
      (fun a c -> a +. float_of_int (Option.value ~default:0 (List.assoc_opt name c)))
      0.0 !counters
  in
  let p50 kind =
    let xs = List.filter (fun o -> o.Common.kind = kind) ops in
    Common.metric (kind ^ "_p50_ms") "ms" ~samples:(List.length xs)
      (Common.median (List.map (fun o -> o.Common.ms) xs))
  in
  let errors =
    [ Common.metric "store.disk_errors" "count" ~samples:1
        (counter "pipeline.cache.disk.errors");
      Common.metric "pgo.store_errors" "count" ~samples:1
        (counter "pgo.store.errors");
      Common.metric "served.errors" "count" ~samples:1 (counter "served.errors") ]
  in
  let metrics =
    Common.op_metrics
      ~setup_s:(reps, Common.median !setup_times +. !restart_s)
      ~rss:!rss ops
    @ [ p50 "miss"; p50 "hit"; p50 "upload";
        Common.metric "restart_s" "s" ~samples:1 !restart_s ]
    @ errors
  in
  let layers =
    if traced then begin
      Trace.add t "store.mem_hits"
        (counter "pipeline.cache.hits" -. counter "pipeline.cache.disk.hits");
      Trace.add t "store.disk_hits" (counter "pipeline.cache.disk.hits");
      Trace.add t "store.misses" (counter "pipeline.cache.misses");
      Trace.add t "store.disk_errors" (counter "pipeline.cache.disk.errors");
      Trace.add t "served.errors" (counter "served.errors");
      Trace.add t "pgo.store_errors" (counter "pgo.store.errors");
      let samples = List.length !overhead in
      Ledger.metrics t
        ~extra:
          [ Common.metric "served.overhead_ms" "ms" ~samples (Common.median !overhead);
            Common.metric "pgo.ingest_ms" "ms" ~samples:(List.length !ingest)
              (Common.median !ingest);
            Common.metric "trace.overhead_pct" "%" ~samples
              (100.0 *. (!traced_ms -. !untraced_ms) /. !untraced_ms) ]
    end
    else []
  in
  ({ Common.ops; metrics; layers; consistent = !notes = []; notes = List.rev !notes }, t)
