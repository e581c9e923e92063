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
   and a forced round-robin policy. Each program gets one fresh
   artifact store shared by its configurations.

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
module Run = Janus_vm.Run
module Machine = Janus_vm.Machine
module Profiler = Janus_profile.Profiler

let programs = Janus_core.Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ]

type mode = Native | Dbm_only | Dbm_eager | Par of Janus.config

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
     Par (Janus.config ~force_policy:(Desc.Round_robin 4) ())) ]

let stats_fields = function
  | None -> "-"
  | Some (s : Dbm.stats) ->
    Printf.sprintf "frag=%d traces=%d disp=%d xlat=%d flush=%d commit=%d abort=%d"
      s.Dbm.fragments_built s.Dbm.traces_built s.Dbm.dispatches
      s.Dbm.translated_insns s.Dbm.cache_flushes s.Dbm.stm_commits
      s.Dbm.stm_aborts

(* what [Janus.run_dbm_only] does, with the DBM built directly so its
   promotion threshold can be 1 *)
let run_dbm_eager ~input img =
  let prog = Program.load img in
  let dbm = Dbm.create ~promote_threshold:1 prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  (match Dbm.run dbm cache ctx with
   | `Halted -> ()
   | `Yielded | `Out_of_fuel _ -> failwith "dbm-promote1: did not halt");
  (ctx, dbm.Dbm.stats)

let () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let img = Suite.compile b in
      let input = Suite.train_input b in
      let store = Pipeline.store () in
      let print name ~output ~exit_code ~cycles ~icount ~mem stats =
        Printf.printf "%s %s out=%s exit=%d cycles=%d icount=%d mem=%s %s\n"
          b.Suite.name name
          (Digest.to_hex (Digest.string output))
          exit_code cycles icount mem (stats_fields stats)
      in
      List.iter
        (fun (name, mode) ->
          let print_result (r : Janus.result) =
            print name ~output:r.Janus.output ~exit_code:r.Janus.exit_code
              ~cycles:r.Janus.cycles ~icount:r.Janus.icount
              ~mem:r.Janus.mem_digest r.Janus.stats
          in
          match mode with
          | Native -> print_result (Janus.run_native ~input img)
          | Dbm_only -> print_result (Janus.run_dbm_only ~input img)
          | Dbm_eager ->
            let ctx, stats = run_dbm_eager ~input img in
            print name ~output:(Buffer.contents ctx.Machine.out)
              ~exit_code:ctx.Machine.exit_code ~cycles:ctx.Machine.cycles
              ~icount:ctx.Machine.icount ~mem:(Run.mem_digest ctx)
              (Some stats)
          | Par cfg ->
            let p = Janus.prepare ~cfg ~train_input:input ~store img in
            print_result (Janus.run_parallel ~cfg ~input ~store p))
        modes)
    programs

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
