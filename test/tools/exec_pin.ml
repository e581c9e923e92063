(* exec_pin: print one fingerprint line per (program, execution mode)
   over the twelve suite programs at training scale, so any change to
   the execution core (interpreter, DBM, runtime) that moves an output
   byte, a virtual cycle, a retired-instruction count, the final memory
   or a DBM counter shows up as a diff against the committed
   exec_pin.expected.

   Modes: native, DBM-only, the ten Janus configurations of the host
   benchmark's [suite] workload, plus the STM-everywhere ablation and a
   forced round-robin policy. Each program gets one fresh artifact
   store shared by its configurations. Run from anywhere; prints to
   stdout. *)

module Suite = Janus_suite.Suite
module Janus = Janus_core.Janus
module Pipeline = Janus_core.Pipeline
module Dbm = Janus_dbm.Dbm
module Desc = Janus_schedule.Desc

let programs = Janus_core.Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ]

type mode = Native | Dbm_only | Par of Janus.config

let modes =
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

let () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let img = Suite.compile b in
      let input = Suite.train_input b in
      let store = Pipeline.store () in
      List.iter
        (fun (name, mode) ->
          let r =
            match mode with
            | Native -> Janus.run_native ~input img
            | Dbm_only -> Janus.run_dbm_only ~input img
            | Par cfg ->
              let p = Janus.prepare ~cfg ~train_input:input ~store img in
              Janus.run_parallel ~cfg ~input ~store p
          in
          Printf.printf "%s %s out=%s exit=%d cycles=%d icount=%d mem=%s %s\n"
            b.Suite.name name
            (Digest.to_hex (Digest.string r.Janus.output))
            r.Janus.exit_code r.Janus.cycles r.Janus.icount r.Janus.mem_digest
            (stats_fields r.Janus.stats))
        modes)
    programs
