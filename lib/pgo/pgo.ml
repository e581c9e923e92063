module Profiler = Janus_profile.Profiler
module Adapt = Janus_adapt.Adapt
module Pipeline = Janus_core.Pipeline
module Janus = Janus_core.Janus
module Image = Janus_vx.Image
module Schedule = Janus_schedule.Schedule
module Version = Janus_core.Version
module Envelope = Janus_core.Envelope

type source = Training | Fleet | Governed

let source_name = function
  | Training -> "training"
  | Fleet -> "fleet"
  | Governed -> "governed"

let source_tag = function Training -> 0 | Fleet -> 1 | Governed -> 2

type ledger = {
  l_lid : int;
  l_self_insns : int;
  l_invocations : int;
  l_iterations : int;
  l_observed : bool;
  l_dep : bool;
  l_checks_passed : int;
  l_checks_failed : int;
  l_commits : int;
  l_aborts : int;
  l_fallbacks : int;
  l_par_work : int;
  l_par_cost : int;
  l_demotions : int;
  l_promotions : int;
  l_sampled_dep : bool;
}

let zero_ledger lid =
  {
    l_lid = lid;
    l_self_insns = 0;
    l_invocations = 0;
    l_iterations = 0;
    l_observed = false;
    l_dep = false;
    l_checks_passed = 0;
    l_checks_failed = 0;
    l_commits = 0;
    l_aborts = 0;
    l_fallbacks = 0;
    l_par_work = 0;
    l_par_cost = 0;
    l_demotions = 0;
    l_promotions = 0;
    l_sampled_dep = false;
  }

type run = {
  run_id : string;
  r_source : source;
  r_input : string;
  r_total_insns : int;
  r_loops : ledger list;
}

type t = { p_image : string; p_runs : run list }

let empty image = { p_image = image; p_runs = [] }
let runs t = List.length t.p_runs

(* ------------------------------------------------------------------ *)
(* Canonical binary encoding.  The run body below is the unit of
   content addressing: [run_id] is its digest, so decode-then-encode
   must reproduce the bytes exactly (ledgers are kept sorted by lid,
   runs sorted by id). *)

exception Bad_profile of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_profile s)) fmt

let wu8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let wu32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let wu64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let wstr buf s =
  wu32 buf (String.length s);
  Buffer.add_string buf s

let ru8 b pos =
  if !pos + 1 > Bytes.length b then bad "truncated payload (u8 at %d)" !pos;
  let v = Char.code (Bytes.get b !pos) in
  incr pos;
  v

let ru32 b pos =
  if !pos + 4 > Bytes.length b then bad "truncated payload (u32 at %d)" !pos;
  let v = Int32.to_int (Bytes.get_int32_le b !pos) land 0xffffffff in
  pos := !pos + 4;
  v

let ru64 b pos =
  if !pos + 8 > Bytes.length b then bad "truncated payload (u64 at %d)" !pos;
  let v = Bytes.get_int64_le b !pos in
  pos := !pos + 8;
  (match Int64.unsigned_to_int v with
  | Some i -> i
  | None -> bad "counter overflows the host int at %d" !pos)

let rstr b pos =
  let n = ru32 b pos in
  if !pos + n > Bytes.length b then bad "truncated payload (string at %d)" !pos;
  let s = Bytes.sub_string b !pos n in
  pos := !pos + n;
  s

let encode_ledger buf l =
  wu32 buf l.l_lid;
  wu64 buf l.l_self_insns;
  wu64 buf l.l_invocations;
  wu64 buf l.l_iterations;
  wu64 buf l.l_checks_passed;
  wu64 buf l.l_checks_failed;
  wu64 buf l.l_commits;
  wu64 buf l.l_aborts;
  wu64 buf l.l_fallbacks;
  wu64 buf l.l_par_work;
  wu64 buf l.l_par_cost;
  wu64 buf l.l_demotions;
  wu64 buf l.l_promotions;
  let flags =
    (if l.l_observed then 1 else 0)
    lor (if l.l_dep then 2 else 0)
    lor if l.l_sampled_dep then 4 else 0
  in
  wu8 buf flags

let decode_ledger b pos =
  let l_lid = ru32 b pos in
  let l_self_insns = ru64 b pos in
  let l_invocations = ru64 b pos in
  let l_iterations = ru64 b pos in
  let l_checks_passed = ru64 b pos in
  let l_checks_failed = ru64 b pos in
  let l_commits = ru64 b pos in
  let l_aborts = ru64 b pos in
  let l_fallbacks = ru64 b pos in
  let l_par_work = ru64 b pos in
  let l_par_cost = ru64 b pos in
  let l_demotions = ru64 b pos in
  let l_promotions = ru64 b pos in
  let flags = ru8 b pos in
  if flags land (lnot 7) <> 0 then bad "unknown ledger flags 0x%x" flags;
  {
    l_lid;
    l_self_insns;
    l_invocations;
    l_iterations;
    l_observed = flags land 1 <> 0;
    l_dep = flags land 2 <> 0;
    l_checks_passed;
    l_checks_failed;
    l_commits;
    l_aborts;
    l_fallbacks;
    l_par_work;
    l_par_cost;
    l_demotions;
    l_promotions;
    l_sampled_dep = flags land 4 <> 0;
  }

let encode_run_body r =
  let buf = Buffer.create 256 in
  wu8 buf (source_tag r.r_source);
  wstr buf r.r_input;
  wu64 buf r.r_total_insns;
  wu32 buf (List.length r.r_loops);
  List.iter (encode_ledger buf) r.r_loops;
  Buffer.to_bytes buf

let make_run ~source ~input ~total_insns loops =
  let loops =
    List.sort_uniq (fun a b -> compare a.l_lid b.l_lid) loops
  in
  let r =
    { run_id = ""; r_source = source; r_input = input;
      r_total_insns = total_insns; r_loops = loops }
  in
  { r with run_id = Digest.to_hex (Digest.bytes (encode_run_body r)) }

let decode_run b pos =
  let src =
    match ru8 b pos with
    | 0 -> Training
    | 1 -> Fleet
    | 2 -> Governed
    | n -> bad "unknown run source tag %d" n
  in
  let input = rstr b pos in
  let total = ru64 b pos in
  let nloops = ru32 b pos in
  if nloops > 1_000_000 then bad "implausible loop count %d" nloops;
  let loops = List.init nloops (fun _ -> decode_ledger b pos) in
  make_run ~source:src ~input ~total_insns:total loops

(* ------------------------------------------------------------------ *)
(* Constructors *)

let run_of_profile ~source ~input ~coverage ~deps =
  let cov_ids =
    match coverage with Some c -> Profiler.loop_ids c | None -> []
  in
  let dep_ids = match deps with Some d -> Profiler.dep_loop_ids d | None -> [] in
  let lids = List.sort_uniq compare (cov_ids @ dep_ids) in
  let ledger lid =
    let z = zero_ledger lid in
    let z =
      match coverage with
      | None -> z
      | Some c ->
        let cv = Profiler.cov_of c lid in
        { z with
          l_self_insns = cv.Profiler.self_insns;
          l_invocations = cv.Profiler.invocations;
          l_iterations = cv.Profiler.iterations }
    in
    match deps with
    | None -> z
    | Some d ->
      { z with
        l_observed = Profiler.was_observed d lid;
        l_dep = Profiler.has_dep d lid }
  in
  let total = match coverage with Some c -> c.Profiler.total_insns | None -> 0 in
  make_run ~source ~input ~total_insns:total (List.map ledger lids)

let run_of_governor ~input ~total_insns stats =
  let ledger (s : Adapt.loop_stats) =
    { (zero_ledger s.Adapt.loop_id) with
      l_invocations = s.Adapt.invocations;
      l_observed = s.Adapt.samples > 0;
      l_checks_passed = s.Adapt.checks_passed;
      l_checks_failed = s.Adapt.checks_failed;
      l_commits = s.Adapt.commits;
      l_aborts = s.Adapt.aborts;
      l_fallbacks = s.Adapt.fallbacks;
      l_par_work = s.Adapt.par_work;
      l_par_cost = s.Adapt.par_cost;
      l_demotions = s.Adapt.demotions;
      l_promotions = s.Adapt.promotions;
      l_sampled_dep = s.Adapt.sampled_dep }
  in
  make_run ~source:Governed ~input ~total_insns (List.map ledger stats)

let sort_runs rs =
  List.sort_uniq (fun a b -> compare a.run_id b.run_id) rs

let add t r = { t with p_runs = sort_runs (r :: t.p_runs) }

let merge a b =
  if not (String.equal a.p_image b.p_image) then
    invalid_arg
      (Printf.sprintf "Pgo.merge: profiles for different images (%s vs %s)"
         a.p_image b.p_image);
  { p_image = a.p_image; p_runs = sort_runs (a.p_runs @ b.p_runs) }

let equal a b = a = b

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type verdict = V_parallel | V_dep | V_unobserved

let verdict_name = function
  | V_parallel -> "parallel"
  | V_dep -> "dep"
  | V_unobserved -> "unobserved"

type agg = {
  a_lid : int;
  a_runs : int;
  a_invocations : int;
  a_iterations : int;
  a_self_insns : int;
  a_checks_failed : int;
  a_fallbacks : int;
  a_demotions : int;
  a_par_work : int;
  a_par_cost : int;
  a_verdict : verdict;
  a_suspect : bool;
}

let ledger_dep l = l.l_dep || l.l_sampled_dep || l.l_checks_failed > 0

let aggregate t =
  let tbl : (int, agg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun l ->
          let a =
            match Hashtbl.find_opt tbl l.l_lid with
            | Some a -> a
            | None ->
              { a_lid = l.l_lid; a_runs = 0; a_invocations = 0;
                a_iterations = 0; a_self_insns = 0; a_checks_failed = 0;
                a_fallbacks = 0; a_demotions = 0; a_par_work = 0;
                a_par_cost = 0; a_verdict = V_unobserved; a_suspect = false }
          in
          let verdict =
            if ledger_dep l || a.a_verdict = V_dep then V_dep
            else if l.l_observed || a.a_verdict = V_parallel then V_parallel
            else V_unobserved
          in
          Hashtbl.replace tbl l.l_lid
            { a with
              a_runs = a.a_runs + 1;
              a_invocations = a.a_invocations + l.l_invocations;
              a_iterations = a.a_iterations + l.l_iterations;
              a_self_insns = a.a_self_insns + l.l_self_insns;
              a_checks_failed = a.a_checks_failed + l.l_checks_failed;
              a_fallbacks = a.a_fallbacks + l.l_fallbacks;
              a_demotions = a.a_demotions + l.l_demotions;
              a_par_work = a.a_par_work + l.l_par_work;
              a_par_cost = a.a_par_cost + l.l_par_cost;
              a_verdict = verdict;
              a_suspect =
                a.a_suspect || l.l_demotions > 0 || l.l_checks_failed > 0 })
        r.r_loops)
    t.p_runs;
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> compare a.a_lid b.a_lid)

(* ------------------------------------------------------------------ *)
(* The versioned codec *)

let magic = "JPROF1"

(* [Version.version], not the build stamp: the payload codec is
   explicit, so profiles outlive rebuilds *)
let encode t =
  let payload = Buffer.create 1024 in
  wu32 payload (List.length t.p_runs);
  List.iter
    (fun r -> Buffer.add_bytes payload (encode_run_body r))
    t.p_runs;
  Envelope.encode ~magic ~version:Version.version [ t.p_image ]
    (Buffer.contents payload)

let to_bytes t = Bytes.of_string (encode t)

let decode s =
  match Envelope.decode ~magic ~version:Version.version ~fields:1 s with
  | Error Envelope.Stale ->
    bad "stale version (this build reads %s)" Version.version
  | Error (Envelope.Corrupt m) -> raise (Bad_profile m)
  | Ok (fields, payload) ->
    let image = List.hd fields in
    let payload = Bytes.of_string payload in
    let pos = ref 0 in
    let nruns = ru32 payload pos in
    if nruns > 1_000_000 then bad "implausible run count %d" nruns;
    let runs = List.init nruns (fun _ -> decode_run payload pos) in
    if !pos <> Bytes.length payload then
      bad "trailing bytes after run %d" nruns;
    { p_image = image; p_runs = sort_runs runs }

let of_bytes b = decode (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Evidence *)

let generation t = Digest.to_hex (Digest.bytes (to_bytes t))

let profiler_sourced r =
  match r.r_source with Training | Fleet -> true | Governed -> false

let evidence t =
  let prof_runs = List.filter profiler_sourced t.p_runs in
  let coverage =
    if prof_runs = [] then None
    else begin
      let loops : (int, Profiler.loop_cov) Hashtbl.t = Hashtbl.create 16 in
      let total = ref 0 in
      List.iter
        (fun r ->
          total := !total + r.r_total_insns;
          List.iter
            (fun l ->
              match Hashtbl.find_opt loops l.l_lid with
              | Some cv ->
                cv.Profiler.self_insns <-
                  cv.Profiler.self_insns + l.l_self_insns;
                cv.Profiler.invocations <-
                  cv.Profiler.invocations + l.l_invocations;
                cv.Profiler.iterations <-
                  cv.Profiler.iterations + l.l_iterations
              | None ->
                Hashtbl.replace loops l.l_lid
                  { Profiler.self_insns = l.l_self_insns;
                    invocations = l.l_invocations;
                    iterations = l.l_iterations;
                    ex_calls = 0; ex_insns = 0; ex_reads = 0; ex_writes = 0 })
            r.r_loops)
        prof_runs;
      Some { Profiler.total_insns = !total; loops }
    end
  in
  let aggs = aggregate t in
  let deps =
    let dep_found : (int, bool) Hashtbl.t = Hashtbl.create 16 in
    let observed : (int, bool) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun a ->
        match a.a_verdict with
        | V_dep ->
          Hashtbl.replace dep_found a.a_lid true;
          Hashtbl.replace observed a.a_lid true
        | V_parallel -> Hashtbl.replace observed a.a_lid true
        | V_unobserved -> ())
      aggs;
    { Profiler.dep_found; observed }
  in
  {
    Pipeline.ev_coverage = coverage;
    ev_deps = Some deps;
    ev_suspect =
      List.filter_map (fun a -> if a.a_suspect then Some a.a_lid else None)
        aggs;
    ev_generation = generation t;
  }

(* ------------------------------------------------------------------ *)
(* The persistent store *)

module Store = struct
  type t = {
    sd : string;
    mu : Mutex.t;
    mutable errs : int;
    written : (string, unit) Hashtbl.t;  (* live paths, never pruned *)
  }

  let open_ dir =
    Envelope.mkdir_p dir;
    { sd = dir; mu = Mutex.create (); errs = 0; written = Hashtbl.create 8 }

  (* The image name becomes a file name, and it arrives inside the
     profile (a daemon upload included): only a digest is a safe one,
     so nothing can name a path outside the store. *)
  let path t image =
    let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
    if image = "" || not (String.for_all hex image) then
      bad "image %S is not a lowercase hex digest" image;
    Filename.concat t.sd (image ^ ".jprof")

  (* Unlocked: callers hold [mu]. *)
  let load_at t ~image p =
    if not (Sys.file_exists p) then None
    else
      match decode (Envelope.read_file p) with
      | prof when String.equal prof.p_image image -> Some prof
      | _ | (exception (Bad_profile _ | Sys_error _)) ->
        (* a valid file filed under the wrong name is as useless as a
           corrupt one *)
        t.errs <- t.errs + 1;
        None

  let load t ~image =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () -> load_at t ~image (path t image))

  let save t prof =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let p = path t prof.p_image in
        let merged =
          match load_at t ~image:prof.p_image p with
          | Some existing -> merge existing prof
          | None -> prof
        in
        Envelope.publish p (encode merged);
        Hashtbl.replace t.written p ();
        merged)

  let runs t ~image = match load t ~image with None -> 0 | Some p -> runs p
  let errors t = t.errs
  let evidence_for t ~image = Option.map evidence (load t ~image)

  let prune ?max_age ?max_bytes t =
    Mutex.lock t.mu;
    let protect p = Hashtbl.mem t.written p in
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        Envelope.prune_dir ?max_age ?max_bytes ~protect ~exts:[ ".jprof" ]
          t.sd)
end

(* ------------------------------------------------------------------ *)
(* Collection *)

let input_key input = String.concat "," (List.map Int64.to_string input)

let collect ?fuel ?(source = Fleet) ~store ~input image =
  let analysis = Pipeline.analyse image in
  let coverage, deps = Profiler.run ?fuel ~input image analysis in
  let run =
    run_of_profile ~source ~input:(input_key input) ~coverage:(Some coverage)
      ~deps:(Some deps)
  in
  let image_k = Pipeline.image_key image in
  Store.save store (add (empty image_k) run)

let collect_governed ~store ~input image (res : Janus.result) =
  match res.Janus.governor with
  | None -> None
  | Some g ->
    let run =
      run_of_governor ~input:(input_key input) ~total_insns:res.Janus.icount
        (Adapt.snapshot g)
    in
    let image_k = Pipeline.image_key image in
    Some (Store.save store (add (empty image_k) run))

(* ------------------------------------------------------------------ *)
(* Iterate until converged *)

module Iterate = struct
  type round = {
    rd_round : int;
    rd_cycles : int;
    rd_schedule_md5 : string;
    rd_selected : int list;
    rd_flipped : (int * verdict) list;
    rd_runs : int;
    rd_generation : string;
  }

  type outcome = {
    o_rounds : round list;
    o_converged : bool;
    o_baseline_cycles : int;
    o_final_cycles : int;
  }

  let pp_round ppf r =
    Format.fprintf ppf "round=%d cycles=%d schedule=%s selected=[%s] flipped=%d%s runs=%d gen=%s"
      r.rd_round r.rd_cycles r.rd_schedule_md5
      (String.concat "," (List.map string_of_int r.rd_selected))
      (List.length r.rd_flipped)
      (match r.rd_flipped with
      | [] -> ""
      | fs ->
        Printf.sprintf "[%s]"
          (String.concat ","
             (List.map
                (fun (lid, v) -> Printf.sprintf "%d:%s" lid (verdict_name v))
                fs)))
      r.rd_runs r.rd_generation

  (* The dependence verdicts a round's selection consumed: from the
     training profile at round 0, from the store aggregate after. *)
  let training_verdicts (prep : Janus.prepared) =
    match prep.Janus.p_deps with
    | None -> []
    | Some d ->
      List.map
        (fun lid ->
          ( lid,
            if Profiler.has_dep d lid then V_dep
            else if Profiler.was_observed d lid then V_parallel
            else V_unobserved ))
        (Profiler.dep_loop_ids d)

  let profile_verdicts p =
    List.map (fun a -> (a.a_lid, a.a_verdict)) (aggregate p)

  let flips prev cur =
    let look lid vs =
      match List.assoc_opt lid vs with Some v -> v | None -> V_unobserved
    in
    let lids =
      List.sort_uniq compare (List.map fst prev @ List.map fst cur)
    in
    List.filter_map
      (fun lid ->
        let v = look lid cur in
        if v = look lid prev then None else Some (lid, v))
      lids

  let run ?(cfg = Janus.config ()) ?fuel ?(max_rounds = 6) ?(threshold = 0.5)
      ?(log = fun _ -> ()) ?pipeline_store ~store ~train_input ~fleet ~input
      image =
    let pstore =
      match pipeline_store with Some s -> s | None -> Pipeline.store ()
    in
    let image_k = Pipeline.image_key image in
    let finish ~converged acc =
      let rounds = List.rev acc in
      let first = List.hd rounds in
      let last = List.hd acc in
      {
        o_rounds = rounds;
        o_converged = converged;
        o_baseline_cycles = first.rd_cycles;
        o_final_cycles = last.rd_cycles;
      }
    in
    let rec go n prev_verdicts ~prev_md5 ~prev_cycles acc =
      let stored = if n = 0 then None else Store.load store ~image:image_k in
      let ev = Option.map evidence stored in
      let prep = Janus.prepare ~cfg ~train_input ?evidence:ev ~store:pstore image in
      let res = Janus.run_parallel ~cfg ~input ~store:pstore prep in
      List.iter
        (fun fi -> ignore (collect ?fuel ~source:Fleet ~store ~input:fi image))
        fleet;
      ignore (collect_governed ~store ~input image res);
      let cur_verdicts =
        match stored with
        | Some p -> profile_verdicts p
        | None -> training_verdicts prep
      in
      let md5 =
        Digest.to_hex (Digest.bytes (Schedule.to_bytes prep.Janus.p_schedule))
      in
      let rd =
        {
          rd_round = n;
          rd_cycles = res.Janus.cycles;
          rd_schedule_md5 = md5;
          rd_selected = res.Janus.selected_loops;
          rd_flipped = (if n = 0 then [] else flips prev_verdicts cur_verdicts);
          rd_runs = Store.runs store ~image:image_k;
          rd_generation =
            (match stored with Some p -> generation p | None -> "-");
        }
      in
      log (Format.asprintf "%a" pp_round rd);
      let acc = rd :: acc in
      if n > 0 && String.equal md5 prev_md5 then finish ~converged:true acc
      else if
        n > 0
        && float_of_int (prev_cycles - res.Janus.cycles)
           *. 100.0
           /. float_of_int (max 1 prev_cycles)
           < threshold
      then finish ~converged:true acc
      else if n >= max_rounds then finish ~converged:false acc
      else
        go (n + 1) cur_verdicts ~prev_md5:md5 ~prev_cycles:res.Janus.cycles acc
    in
    go 0 [] ~prev_md5:"" ~prev_cycles:0 []
end
