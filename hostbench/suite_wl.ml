(* The [suite] workload: execution-heavy. One op is one (program,
   configuration) run at reference scale over the nine Fig. 7 programs
   plus adv.alias, adv.stable and adv.fission. Each pass uses a fresh
   artifact store, so the static stages run once per program per pass
   and are shared across its configurations; the seed only permutes op
   order. *)

module Suite = Janus_suite.Suite
module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Run = Janus_vm.Run

let programs = Janus_core.Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ]

type exec = Native | Dbm_only | Par of Janus.config

let configs =
  [ ("native", Native);
    ("dbm", Dbm_only);
    ("static", Par (Janus.config ~use_profile:false ~use_checks:false ()));
    ("profile", Par (Janus.config ~use_checks:false ()));
    ("janus-1t", Par (Janus.config ~threads:1 ()));
    ("janus-2t", Par (Janus.config ~threads:2 ()));
    ("janus-4t", Par (Janus.config ~threads:4 ()));
    ("janus-8t", Par (Janus.config ~threads:8 ()));
    ("doacross", Par (Janus.config ~use_doacross:true ()));
    ("prefetch", Par (Janus.config ~model_cache:true ~prefetch:true ()));
    ("fission-4t", Par (Janus.config ~threads:4 ~fission:true ()));
    ("adapt", Par (Janus.config ~adapt:true ())) ]

(* The run's pass count is fixed by [--seconds], one pass per 7.5 s, not
   by the time the ops take, so code of any speed runs the same ops. A
   pass took 19 s when this workload was written (2-vCPU x86-64 VM, fast
   host speed), so this workload measures more than [--seconds]: at 15 s
   every op is timed twice, ~19 s apart, which p90 over one pass's 144
   ops needed to be steady. A traced run, whose figures are per layer,
   makes one pass. *)
let passes ~traced = function
  | `Ops _ -> max_int
  | `Time s -> if traced then 1 else max 1 (int_of_float (Float.round (s /. 7.5)))

(* [Janus.run_native]'s instruction budget, so the reference and the
   native op run out of fuel at the same point *)
let fuel = 400_000_000

let model_cache = function Par cfg -> cfg.Pipeline.model_cache | _ -> false

(* The independent reference: lib/vm's [Run], charged for cold-line
   misses when the configuration is. *)
let reference (b : Suite.benchmark) img ~model_cache =
  Run.run ~fuel ~input:(Suite.ref_input b) ~model_cache img

(* Output, exit code and final memory must equal the reference's, and
   the run must not run out of fuel. *)
let check ~(reference : Run.result) (r : Janus.result) =
  Common.labels
    (List.filter_map Fun.id
       [ (if r.Janus.output <> reference.Run.output then Some "output" else None);
         (if r.Janus.exit_code <> reference.Run.exit_code then Some "exit"
          else None);
         (if r.Janus.mem_digest <> reference.Run.mem_digest then
            Some "mem_digest"
          else None);
         (if r.Janus.aborted <> None then Some "fuel" else None) ])

let fingerprint (r : Janus.result) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%s" r.Janus.output r.Janus.exit_code
          r.Janus.cycles r.Janus.mem_digest))

(* The public call an op makes. *)
let exec ~store (b : Suite.benchmark) img = function
  | Native -> Janus.run_native ~fuel ~input:(Suite.ref_input b) img
  | Dbm_only -> Janus.run_dbm_only ~input:(Suite.ref_input b) img
  | Par cfg ->
    let p = Janus.prepare ~cfg ~train_input:(Suite.train_input b) ~store img in
    Janus.run_parallel ~cfg ~input:(Suite.ref_input b) p

(* The same op replayed as its public parts, with spans. *)
let replay t ~store (b : Suite.benchmark) img = function
  | Native ->
    Ledger.execute t ~layer:"vm" (fun () ->
        Janus.run_native ~fuel ~input:(Suite.ref_input b) img)
  | Dbm_only ->
    Ledger.execute t ~layer:"dbm" (fun () ->
        Janus.run_dbm_only ~input:(Suite.ref_input b) img)
  | Par cfg ->
    let p =
      Ledger.prepare t ~store ~cfg ~train_input:(Suite.train_input b) img
    in
    Ledger.run_parallel t ~cfg ~input:(Suite.ref_input b) p

(* Time one op and check it. A native op fails only when it exits
   non-zero or runs out of fuel; every other configuration is checked
   against [reference], which is computed after the timed call. *)
let run_op ~run ~reference ~id e =
  let t0 = Common.now () in
  match run () with
  | r ->
    let ms = 1000.0 *. (Common.now () -. t0) in
    let fail =
      match e with
      | Native -> if r.Janus.exit_code <> 0 then Some "exit" else None
      | _ -> check ~reference:(reference ~model_cache:(model_cache e)) r
    in
    (Common.op ?fail ~id ~ms (fingerprint r), Some r)
  | exception Run.Out_of_fuel ->
    let ms = 1000.0 *. (Common.now () -. t0) in
    (Common.op ~fail:"fuel" ~id ~ms "", None)
  | exception e ->
    let ms = 1000.0 *. (Common.now () -. t0) in
    (Common.op ~fail:(Common.exn_label e) ~id ~ms "", None)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* One pass: every (program, configuration) pair in a seeded order. *)
let pass_order ~seed images pass =
  shuffle
    (Random.State.make [| seed; pass |])
    (Array.of_list
       (List.concat_map (fun bi -> List.map (fun c -> (bi, c)) configs) images))

let compile_all ?trace () =
  List.map
    (fun (b : Suite.benchmark) ->
       match trace with
       | None -> (b, Suite.compile b)
       | Some t ->
         Trace.add t "jcc.calls" 1.0;
         (b, Trace.span t "jcc" (fun () -> Suite.compile b)))
    programs

(* geomean over the nine of native cycles / full-Janus 8-thread cycles *)
let virtual_speedup cycles images =
  let nine =
    List.filter (fun ((b : Suite.benchmark), _) -> b.Suite.parallelisable) images
  in
  Janus_core.Eval.geomean
    (List.map
       (fun ((b : Suite.benchmark), img) ->
          let c cfg = cycles b img cfg in
          float_of_int (c "native") /. float_of_int (c "janus-8t"))
       nine)

let run ~seed ~(budget : Common.budget) ~traced =
  let t = Trace.create () in
  let images, setup =
    if traced then (Trace.setup t (fun () -> compile_all ~trace:t ()), (1, nan))
    else
      let v, s = Common.timed_setup ~n:9 compile_all in
      (v, (9, s))
  in
  let refs = Hashtbl.create 32 in
  let reference (b : Suite.benchmark) img ~model_cache =
    let key = (b.Suite.name, model_cache) in
    match Hashtbl.find_opt refs key with
    | Some r -> r
    | None ->
      let r = reference b img ~model_cache in
      Hashtbl.replace refs key r;
      r
  in
  let cycles_seen = Hashtbl.create 64 in
  let ops = ref [] and n = ref 0 in
  let untraced_ms = ref 0.0 and traced_ms = ref 0.0 in
  let notes = ref [] in
  let pass = ref 0 and passes = passes ~traced budget in
  let more () =
    match budget with `Ops k -> !n < k | `Time _ -> !pass < passes
  in
  while more () do
    let store = Pipeline.store () and mirror = Pipeline.store () in
    Array.iter
      (fun (((b : Suite.benchmark), img), (cname, e)) ->
         let go =
           match budget with `Ops k -> !n < k | `Time _ -> true
         in
         if go then begin
           let id = b.Suite.name ^ "/" ^ cname in
           let run () =
             if traced then Trace.op t !n (fun () -> replay t ~store b img e)
             else exec ~store b img e
           in
           (* each op starts on a collected heap, so the garbage it
              inherits, and the peak resident set, do not depend on the
              seeded order of the ops before it *)
           Gc.full_major ();
           let o, r = run_op ~run ~reference:(reference b img) ~id e in
           Option.iter
             (fun r -> Hashtbl.replace cycles_seen id r.Janus.cycles)
             r;
           if traced then begin
             (* the untraced op on a store in the same state: the replay
                must reproduce its result, and the time difference is
                the tracing overhead *)
             let o', _ =
               run_op ~run:(fun () -> exec ~store:mirror b img e)
                 ~reference:(reference b img) ~id e
             in
             traced_ms := !traced_ms +. o.Common.ms;
             untraced_ms := !untraced_ms +. o'.Common.ms;
             if o'.Common.print <> o.Common.print then
               notes := Printf.sprintf "replay of %s differs from its op" id :: !notes
           end;
           ops := o :: !ops;
           incr n
         end)
      (pass_order ~seed images !pass);
    if traced then Ledger.store t store;
    incr pass
  done;
  let ops = List.rev !ops in
  (* deterministic cycles; an op the window did not reach runs here,
     outside it *)
  let cycles (b : Suite.benchmark) img cname =
    match Hashtbl.find_opt cycles_seen (b.Suite.name ^ "/" ^ cname) with
    | Some c -> c
    | None ->
      (exec ~store:(Pipeline.store ()) b img (List.assoc cname configs))
        .Janus.cycles
  in
  let metrics =
    Common.op_metrics ~setup_s:setup ~rss:(Common.peak_rss_mb "self") ops
    @ [ Common.metric "virtual_speedup_geomean" "x" ~samples:9
          (virtual_speedup cycles images) ]
  in
  let layers =
    if traced then
      Ledger.metrics t
        ~extra:
          [ Common.metric "trace.overhead_pct" "%" ~samples:(List.length ops)
              (100.0 *. (!traced_ms -. !untraced_ms) /. !untraced_ms) ]
    else []
  in
  ( { Common.ops; metrics; layers; consistent = !notes = []; notes = List.rev !notes },
    t )
