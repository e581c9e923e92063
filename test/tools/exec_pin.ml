(* exec_pin: print one fingerprint line per (program, execution mode)
   over the twelve suite programs at training scale, so any change to
   the execution core (interpreter, DBM, runtime) that moves an output
   byte, a virtual cycle, a retired-instruction count, the final memory
   or a DBM counter shows up as a diff against the committed
   exec_pin.expected.

   Modes: native, DBM-only, DBM-only with eager trace promotion (every
   fragment becomes a trace on its first re-dispatch, so the trace
   builder walks all hot code), the ten Janus configurations of the
   host benchmark's [suite] workload, plus the STM-everywhere ablation
   and a forced round-robin policy, then the deployment path: the
   default configuration's schedule, shipped through its byte form
   and run by [Janus.run_scheduled], and full Janus at 8 threads with
   fission on and the DBM built at promotion threshold 1, so worker
   yields, transactions and fission elision run in traces. Each
   program gets one fresh artifact store shared by its
   configurations.

   Then two rows for adv.alias at its reference input, where every
   bounds check after the 48th invocation fails and flushes the worker
   caches: full Janus at 8 threads, and the same under a DBM built at
   promotion threshold 1.

   Then one [profile] row per suite program (all 25, the adversarial
   pair and adv.fission), as [Pipeline.profile] computes it for the
   default configuration at the training input: the total instruction
   count, then for each loop the training run recorded, in loop-id
   order, its self instructions, invocations, iterations, the four
   external-call counters and the observed and dependence bits. Run
   from anywhere; prints to stdout. *)

module Suite = Janus_suite.Suite
module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Dbm = Janus_dbm.Dbm
module Desc = Janus_schedule.Desc
module Program = Janus_vm.Program
module Runtime = Janus_runtime.Runtime
module Run = Janus_vm.Run
module Machine = Janus_vm.Machine
module Profiler = Janus_profile.Profiler
module Schedule = Janus_schedule.Schedule

let programs = Janus_core.Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ]

type mode =
  | Native
  | Dbm_only
  | Dbm_eager
  | Par of Janus.config
  | Scheduled
  | Par_eager of Janus.config

let modes =
  [ ("native", Native);
    ("dbm", Dbm_only);
    ("dbm-promote1", Dbm_eager);
    ("static", Par (Janus.config ~use_profile:false ~use_checks:false ()));
    ("profile", Par (Janus.config ~use_checks:false ()));
    ("janus-1t", Par (Janus.config ~threads:1 ()));
    ("janus-2t", Par (Janus.config ~threads:2 ()));
    ("janus-4t", Par (Janus.config ~threads:4 ()));
    ("janus-8t", Par (Janus.config ~threads:8 ()));
    ("doacross", Par (Janus.config ~use_doacross:true ()));
    ("prefetch", Par (Janus.config ~model_cache:true ~prefetch:true ()));
    ("fission-4t", Par (Janus.config ~threads:4 ~fission:true ()));
    ("adapt", Par (Janus.config ~adapt:true ()));
    ("stm-everywhere", Par (Janus.config ~stm_everywhere:true ()));
    ("round-robin-4",
     Par (Janus.config ~force_policy:(Desc.Round_robin 4) ()));
    ("scheduled", Scheduled);
    ("janus-8t-promote1",
     Par_eager (Janus.config ~threads:8 ~fission:true ())) ]

let stats_fields = function
  | None -> "-"
  | Some (s : Dbm.stats) ->
    Printf.sprintf "frag=%d traces=%d disp=%d xlat=%d flush=%d commit=%d abort=%d"
      s.Dbm.fragments_built s.Dbm.traces_built s.Dbm.dispatches
      s.Dbm.translated_insns s.Dbm.cache_flushes s.Dbm.stm_commits
      s.Dbm.stm_aborts

let run_to_halt name dbm cache ~input prog =
  let ctx = Run.fresh_context prog in
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  (match Dbm.run dbm cache ctx with
   | `Halted -> ()
   | `Yielded | `Out_of_fuel _ -> failwith (name ^ ": did not halt"));
  (ctx, dbm.Dbm.stats)

(* what [Janus.run_dbm_only] does, with the DBM built directly so its
   promotion threshold can be 1 *)
let run_dbm_eager ~input img =
  let prog = Program.load ~code:(Janus_vx.Code.of_image img) img in
  let dbm = Dbm.create ~promote_threshold:1 prog in
  run_to_halt "dbm-promote1" dbm (Dbm.new_cache Dbm.Main) ~input prog

(* what [Janus.run_parallel] does over the gated schedule, with the DBM
   built as [run_dbm_eager] builds it and the runtime installed *)
let run_janus_eager ~cfg ~train_input ~input ~store img =
  let p = Janus.prepare ~cfg ~train_input ~store img in
  let schedule, _, _ = Janus.gate ~cfg ~store img p.Janus.p_schedule in
  let prog = Program.load ~code:(Janus_vx.Code.of_image img) img in
  let dbm = Dbm.create ~schedule ~promote_threshold:1 prog in
  let rt =
    Runtime.create dbm
      ~config:
        { Runtime.threads = cfg.Janus.threads;
          force_policy = cfg.Janus.force_policy;
          stm_everywhere = cfg.Janus.stm_everywhere; fuel = cfg.Janus.fuel }
  in
  Runtime.install rt;
  run_to_halt "janus-promote1" dbm rt.Runtime.main_cache ~input prog

let print (b : Suite.benchmark) name ~output ~exit_code ~cycles ~icount ~mem
    stats =
  Printf.printf "%s %s out=%s exit=%d cycles=%d icount=%d mem=%s %s\n"
    b.Suite.name name
    (Digest.to_hex (Digest.string output))
    exit_code cycles icount mem (stats_fields stats)

let print_result b name (r : Janus.result) =
  print b name ~output:r.Janus.output ~exit_code:r.Janus.exit_code
    ~cycles:r.Janus.cycles ~icount:r.Janus.icount ~mem:r.Janus.mem_digest
    r.Janus.stats

let print_run b name ((ctx : Machine.t), stats) =
  print b name ~output:(Buffer.contents ctx.Machine.out)
    ~exit_code:ctx.Machine.exit_code ~cycles:ctx.Machine.cycles
    ~icount:ctx.Machine.icount ~mem:(Run.mem_digest ctx) (Some stats)

let () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let img = Suite.compile b in
      let input = Suite.train_input b in
      let store = Pipeline.store () in
      List.iter
        (fun (name, mode) ->
          let print_result = print_result b name
          and print_run = print_run b name in
          match mode with
          | Native -> print_result (Janus.run_native ~input img)
          | Dbm_only -> print_result (Janus.run_dbm_only ~input img)
          | Dbm_eager -> print_run (run_dbm_eager ~input img)
          | Par_eager cfg ->
            print_run
              (run_janus_eager ~cfg ~train_input:input ~input ~store img)
          | Par cfg ->
            let p = Janus.prepare ~cfg ~train_input:input ~store img in
            print_result (Janus.run_parallel ~cfg ~input ~store p)
          | Scheduled ->
            let cfg = Janus.config () in
            let p = Janus.prepare ~cfg ~train_input:input ~store img in
            let shipped =
              Schedule.of_bytes (Schedule.to_bytes p.Janus.p_schedule)
            in
            print_result (Janus.run_scheduled ~cfg ~input img shipped))
        modes)
    programs

(* the cache-flush rows: trained at the training input, run at the
   reference input *)
let () =
  let b = Suite.find_exn "adv.alias" in
  let img = Suite.compile b in
  let train_input = Suite.train_input b and input = Suite.ref_input b in
  let cfg = Janus.config ~threads:8 () in
  let store = Pipeline.store () in
  let p = Janus.prepare ~cfg ~train_input ~store img in
  print_result b "janus-8t@ref" (Janus.run_parallel ~cfg ~input ~store p);
  print_run b "janus-8t-promote1@ref"
    (run_janus_eager ~cfg ~train_input ~input ~store img)

let () =
  let cfg = Janus.config () in
  List.iter
    (fun (b : Suite.benchmark) ->
      let img = Suite.compile b in
      let store = Pipeline.store () in
      let analysis = Pipeline.analyse ~store img in
      match
        Pipeline.profile ~store ~cfg ~train_input:(Suite.train_input b) img
          analysis
      with
      | Some cov, Some deps ->
        let loop lid =
          let c = Profiler.cov_of cov lid in
          Printf.sprintf " %d:%d/%d/%d/%d/%d/%d/%d/%d%d" lid c.Profiler.self_insns
            c.Profiler.invocations c.Profiler.iterations c.Profiler.ex_calls
            c.Profiler.ex_insns c.Profiler.ex_reads c.Profiler.ex_writes
            (Bool.to_int (Profiler.was_observed deps lid))
            (Bool.to_int (Profiler.has_dep deps lid))
        in
        Printf.printf "%s profile total=%d%s\n" b.Suite.name
          cov.Profiler.total_insns
          (String.concat ""
             (List.map loop
                (List.sort_uniq compare
                   (Profiler.loop_ids cov @ Profiler.dep_loop_ids deps))))
      | _ -> failwith "profile: the default config profiles both halves")
    (Suite.all @ Suite.adversarial @ [ Suite.adv_fission ])
