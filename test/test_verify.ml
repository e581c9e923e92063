(* Tests for the schedule verifier: the dataflow substrate, the
   independent dependence re-derivation, the .jrs/.jx linter on clean
   and deliberately corrupted schedules, and the demotion path that
   turns a bad schedule into a sequential (but correct) run. *)

open Janus_jcc
open Janus_analysis
open Janus_core
module Verify = Janus_verify.Verify
module Liveness = Janus_analysis.Liveness
module Reachdefs = Janus_verify.Reachdefs
module Memdep = Janus_verify.Memdep
module Schedule = Janus_schedule.Schedule
module Rule = Janus_schedule.Rule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr
module Reg = Janus_vx.Reg

let compile src = Jcc.compile ~options:Jcc.default_options src

(* a guest with a fill loop, a reduction and a live-out scalar: enough
   structure for every linter check to have something to look at *)
let guest_src =
  "double a[200]; double b[200];\n\
   int main() {\n\
   \  for (int i = 0; i < 200; i++) { b[i] = (double)i * 0.5; }\n\
   \  for (int i = 0; i < 200; i++) { a[i] = b[i] * 3.0 + 1.0; }\n\
   \  double s = 0.0;\n\
   \  for (int i = 0; i < 200; i++) { s = s + a[i]; }\n\
   \  print_float(s);\n\
   \  return 0;\n\
   }"

(* static-only selection: the guest's three loops split coverage too
   evenly for the profile filters, and the linter needs a populated
   schedule to chew on *)
let pcfg = Janus.config ~use_profile:false ()
let prepared = lazy (Janus.prepare ~cfg:pcfg (compile guest_src))

let errors fs = List.filter (fun f -> f.Verify.severity = Verify.Error) fs

let has_code code fs =
  List.exists
    (fun f -> f.Verify.severity = Verify.Error && String.equal f.Verify.code code)
    fs

(* rebuild a schedule, mapping every loop descriptor through [f] (rule
   offsets are re-pointed at the rewritten data section) *)
let map_loop_descs f (s : Schedule.t) =
  let b = Schedule.builder s.Schedule.channel in
  let loop_off = Hashtbl.create 8 and check_off = Hashtbl.create 8 in
  List.iter
    (fun (r : Rule.t) ->
       match r.Rule.id with
       | Rule.LOOP_INIT | Rule.LOOP_FINISH ->
         let off =
           match Hashtbl.find_opt loop_off r.Rule.data with
           | Some o -> o
           | None ->
             let o = Schedule.add_loop_desc b (f (Schedule.loop_desc s r.Rule.data)) in
             Hashtbl.replace loop_off r.Rule.data o;
             o
         in
         Schedule.add_rule b { r with Rule.data = Int64.of_int off }
       | Rule.MEM_BOUNDS_CHECK ->
         let off =
           match Hashtbl.find_opt check_off r.Rule.data with
           | Some o -> o
           | None ->
             let o = Schedule.add_check_desc b (Schedule.check_desc s r.Rule.data) in
             Hashtbl.replace check_off r.Rule.data o;
             o
         in
         Schedule.add_rule b { r with Rule.data = Int64.of_int off }
       | _ -> Schedule.add_rule b r)
    s.Schedule.rules;
  Schedule.build b

(* ------------------------------------------------------------------ *)
(* Dataflow substrate                                                  *)
(* ------------------------------------------------------------------ *)

let main_func () =
  let p = Lazy.force prepared in
  let cfg = p.Janus.p_analysis.Analysis.cfg in
  (* the function owning the most blocks is main *)
  List.fold_left
    (fun acc (f : Cfg.func) ->
       if List.length f.Cfg.blocks > List.length acc.Cfg.blocks then f
       else acc)
    (List.hd (Cfg.all_funcs cfg))
    (Cfg.all_funcs cfg)

let test_liveness_basic () =
  let f = main_func () in
  let live = Liveness.compute f in
  (* the stack pointer is live at function entry of any real function *)
  Alcotest.(check bool) "rsp live at entry" true
    (Liveness.gp_live_before live ~addr:f.Cfg.fentry Reg.RSP);
  (* unknown addresses conservatively report everything live *)
  Alcotest.(check bool) "unknown addr all live" true
    (Liveness.gp_live_before live ~addr:1 Reg.R15)

let test_reachdefs_basic () =
  let f = main_func () in
  let rd = Reachdefs.compute f in
  (* nothing is defined before the entry instruction *)
  Alcotest.(check bool) "entry has no reaching defs" true
    (Reachdefs.DefSet.is_empty (Reachdefs.reaching_before rd ~addr:f.Cfg.fentry));
  (* somewhere in the body a definition reaches a later instruction *)
  let some_def_reaches =
    List.exists
      (fun (b : Cfg.bblock) ->
         Array.exists
           (fun (ii : Cfg.insn_info) ->
              not
                (Reachdefs.DefSet.is_empty
                   (Reachdefs.reaching_before rd ~addr:ii.Cfg.addr)))
           b.Cfg.insns)
      f.Cfg.blocks
  in
  Alcotest.(check bool) "defs flow forward" true some_def_reaches

let test_memdep_recurrence_carried () =
  (* a[i] = a[i-1] + 2: the re-derivation must find the carried
     dependence with no help from the classifier *)
  let img =
    compile
      "int a[100];\n\
       int main() {\n\
       \  a[0] = 1;\n\
       \  for (int i = 1; i < 100; i++) { a[i] = a[i-1] + 2; }\n\
       \  print_int(a[99]);\n\
       \  return 0;\n\
       }"
  in
  let t = Analysis.analyse_image img in
  let carried =
    List.exists
      (fun (r : Loopanal.report) ->
         match r.Loopanal.cls with
         | Loopanal.Outer | Loopanal.Incompatible _ -> false
         | _ ->
           let v = Memdep.rederive r.Loopanal.func r.Loopanal.loop in
           v.Memdep.v_carried <> [])
      t.Analysis.reports
  in
  Alcotest.(check bool) "recurrence re-derived as carried" true carried

let test_memdep_doall_clean () =
  (* independent iterations: no carried dependence may be re-derived on
     the loop the classifier proves DOALL *)
  let p = Lazy.force prepared in
  List.iter
    (fun (r : Loopanal.report) ->
       if r.Loopanal.cls = Loopanal.Static_doall then begin
         let v = Memdep.rederive r.Loopanal.func r.Loopanal.loop in
         Alcotest.(check (list string))
           (Fmt.str "loop %d carried" r.Loopanal.loop.Looptree.lid)
           [] v.Memdep.v_carried
       end)
    p.Janus.p_analysis.Analysis.reports

let test_crosscheck_clean_on_guest () =
  let p = Lazy.force prepared in
  let findings = Verify.crosscheck p.Janus.p_analysis in
  Alcotest.(check bool)
    (Fmt.str "no crosscheck warnings: %a"
       (Fmt.list Verify.pp_finding) findings)
    true
    (List.for_all (fun f -> f.Verify.severity <> Verify.Warning) findings)

(* ------------------------------------------------------------------ *)
(* Linter: clean schedule                                              *)
(* ------------------------------------------------------------------ *)

let test_clean_schedule () =
  let p = Lazy.force prepared in
  let findings = Verify.lint p.Janus.p_image p.Janus.p_schedule in
  Alcotest.(check bool) "schedule has rules" true
    (p.Janus.p_schedule.Schedule.rules <> []);
  Alcotest.(check (list string)) "no errors" []
    (List.map (fun f -> f.Verify.code) (errors findings))

(* ------------------------------------------------------------------ *)
(* Linter: five corruption classes                                     *)
(* ------------------------------------------------------------------ *)

let test_dangling_address () =
  let p = Lazy.force prepared in
  let s = p.Janus.p_schedule in
  let rules =
    match s.Schedule.rules with
    | r :: tl -> { r with Rule.addr = 0x1 } :: tl
    | [] -> []
  in
  let findings = Verify.lint p.Janus.p_image { s with Schedule.rules } in
  Alcotest.(check bool) "dangling-address reported" true
    (has_code "dangling-address" findings)

let test_unpaired_loop_init () =
  let p = Lazy.force prepared in
  let s = p.Janus.p_schedule in
  let rules =
    List.filter (fun (r : Rule.t) -> r.Rule.id <> Rule.LOOP_FINISH)
      s.Schedule.rules
  in
  let findings = Verify.lint p.Janus.p_image { s with Schedule.rules } in
  Alcotest.(check bool) "unpaired-loop-init reported" true
    (has_code "unpaired-loop-init" findings)

let test_overlapping_privatisation () =
  let p = Lazy.force prepared in
  (* two privatised scalars 4 bytes apart in distinct TLS slots: the
     8-byte copies alias *)
  let s =
    map_loop_descs
      (fun d ->
         { d with
           Desc.privatised =
             [ (Rexpr.Const 0x600000L, 3); (Rexpr.Const 0x600004L, 4) ] })
      p.Janus.p_schedule
  in
  let findings = Verify.lint p.Janus.p_image s in
  Alcotest.(check bool) "overlapping-privatisation reported" true
    (has_code "overlapping-privatisation" findings);
  (* and a duplicate slot is caught independently of placement *)
  let s2 =
    map_loop_descs
      (fun d ->
         { d with
           Desc.privatised =
             [ (Rexpr.Reg Reg.RDI, 5); (Rexpr.Reg Reg.RSI, 5) ] })
      p.Janus.p_schedule
  in
  Alcotest.(check bool) "duplicate slot reported" true
    (has_code "overlapping-privatisation" (Verify.lint p.Janus.p_image s2))

let test_live_register_privatised () =
  let p = Lazy.force prepared in
  (* strip the live-out declarations: registers the loops write and the
     continuation reads are no longer carried out of the workers *)
  let s =
    map_loop_descs
      (fun d -> { d with Desc.live_out_gps = []; Desc.live_out_fps = [] })
      p.Janus.p_schedule
  in
  let findings = Verify.lint p.Janus.p_image s in
  Alcotest.(check bool) "live-register-privatised reported" true
    (has_code "live-register-privatised" findings)

let test_descriptor_out_of_bounds () =
  let p = Lazy.force prepared in
  let s = p.Janus.p_schedule in
  let bad = Int64.of_int (Bytes.length s.Schedule.data + 999) in
  let rules =
    List.map
      (fun (r : Rule.t) ->
         if r.Rule.id = Rule.LOOP_INIT then { r with Rule.data = bad } else r)
      s.Schedule.rules
  in
  let findings = Verify.lint p.Janus.p_image { s with Schedule.rules } in
  Alcotest.(check bool) "descriptor-out-of-bounds reported" true
    (has_code "descriptor-out-of-bounds" findings)

let test_direction_mismatch () =
  let p = Lazy.force prepared in
  let s =
    map_loop_descs
      (fun d -> { d with Desc.iv_step = Int64.neg d.Desc.iv_step })
      p.Janus.p_schedule
  in
  Alcotest.(check bool) "direction-mismatch reported" true
    (has_code "direction-mismatch" (Verify.lint p.Janus.p_image s))

(* ------------------------------------------------------------------ *)
(* Demotion                                                            *)
(* ------------------------------------------------------------------ *)

let test_demote_drops_loop_rules () =
  let p = Lazy.force prepared in
  let s = p.Janus.p_schedule in
  let lids =
    List.filter_map
      (fun (r : Rule.t) ->
         if r.Rule.id = Rule.LOOP_INIT then Some (Int64.to_int r.Rule.aux)
         else None)
      s.Schedule.rules
  in
  match lids with
  | [] -> Alcotest.fail "no loops in schedule"
  | lid :: _ ->
    let s' = Verify.demote p.Janus.p_image s [ lid ] in
    Alcotest.(check bool) "fewer rules" true
      (List.length s'.Schedule.rules < List.length s.Schedule.rules);
    Alcotest.(check bool) "no rule of the demoted loop survives" true
      (List.for_all
         (fun r -> Verify.rule_lid r <> Some lid)
         s'.Schedule.rules);
    (* other loops keep their rules *)
    Alcotest.(check bool) "other loops untouched" true
      (List.exists
         (fun (r : Rule.t) -> r.Rule.id = Rule.LOOP_INIT)
         s'.Schedule.rules
       || List.length lids = 1)

(* [s] with one loop's LOOP_FINISH rules dropped, and that loop's id:
   an error the verifier attributes to the loop, so it demotes it *)
let without_loop_finish (s : Schedule.t) =
  let victim =
    List.find_map
      (fun (r : Rule.t) ->
         if r.Rule.id = Rule.LOOP_FINISH then Some (Int64.to_int r.Rule.aux)
         else None)
      s.Schedule.rules
  in
  let victim = Option.get victim in
  let rules =
    List.filter
      (fun (r : Rule.t) ->
         not (r.Rule.id = Rule.LOOP_FINISH && Int64.to_int r.Rule.aux = victim))
      s.Schedule.rules
  in
  (victim, { s with Schedule.rules })

(* [s] plus a LOOP_UPDATE_BOUND outside every loop extent: an error no
   loop owns, so the verifier drops the whole rule list *)
let with_dangling_update_bound (s : Schedule.t) =
  { s with
    Schedule.rules =
      s.Schedule.rules
      @ [ Rule.make ~addr:0x3 ~data:0L ~aux:0L Rule.LOOP_UPDATE_BOUND ] }

let test_corrupt_schedule_runs_sequentially () =
  (* drop one loop's LOOP_FINISH rules: the verifier must demote that
     loop, neither entry point may report it as deployed, checked or
     governed, and the run must still produce bit-identical output *)
  let p = Lazy.force prepared in
  let native = Janus.run_native p.Janus.p_image in
  let victim, corrupted = without_loop_finish p.Janus.p_schedule in
  List.iter
    (fun adapt ->
       let cfg = Janus.config ~adapt () in
       List.iter
         (fun (entry, (run : Janus.result)) ->
            let name what =
              Printf.sprintf "%s%s: %s" entry
                (if adapt then " (adapt)" else "") what
            in
            Alcotest.(check bool) (name "verifier demoted the corrupted loop")
              true (List.mem victim run.Janus.demoted_loops);
            Alcotest.(check bool) (name "victim not selected") false
              (List.mem victim run.Janus.selected_loops);
            Alcotest.(check bool) (name "victim not checked") false
              (List.mem_assoc victim run.Janus.checks_per_loop);
            Alcotest.(check bool) (name "victim not governed") false
              (match run.Janus.governor with
               | Some g ->
                 List.exists
                   (fun (s : Janus.Adapt.loop_stats) ->
                      s.Janus.Adapt.loop_id = victim)
                   (Janus.Adapt.snapshot g)
               | None -> false);
            Alcotest.(check string) (name "output bit-identical to native")
              native.Janus.output run.Janus.output)
         [ ("run_scheduled", Janus.run_scheduled ~cfg p.Janus.p_image corrupted);
           ("run_parallel",
            Janus.run_parallel ~cfg { p with Janus.p_schedule = corrupted }) ])
    [ false; true ];
  (* with verification off the corruption reaches the DBM unfiltered
     (the demotion list stays empty) *)
  let unchecked =
    Janus.run_scheduled ~cfg:(Janus.config ~verify:false ()) p.Janus.p_image
      corrupted
  in
  Alcotest.(check (list int)) "no demotion without verify" []
    unchecked.Janus.demoted_loops

let test_fully_corrupt_schedule_drops_all_rules () =
  (* an error that cannot be attributed to a loop (dangling
     LOOP_UPDATE_BOUND outside every loop extent) empties the schedule:
     the run degrades to plain DBM, still correct *)
  let p = Lazy.force prepared in
  let native = Janus.run_native p.Janus.p_image in
  let corrupted = with_dangling_update_bound p.Janus.p_schedule in
  let s', demoted, findings =
    Verify.check_and_demote p.Janus.p_image corrupted
  in
  Alcotest.(check bool) "errors found" true (Verify.has_errors findings);
  Alcotest.(check (list (pair int int))) "all rules dropped" []
    (List.map (fun (r : Rule.t) -> (r.Rule.addr, Rule.id_to_int r.Rule.id))
       s'.Schedule.rules);
  Alcotest.(check bool) "every loop demoted" true (demoted <> []);
  let run = Janus.run_scheduled p.Janus.p_image corrupted in
  Alcotest.(check string) "output still native" native.Janus.output
    run.Janus.output

(* ------------------------------------------------------------------ *)
(* The fission check family                                            *)
(* ------------------------------------------------------------------ *)

(* a carried scalar chain plus an independent stream: Static_dep as a
   whole, split by the fission planner into a DOALL product (the
   stream) and a sequential residue (the chain) *)
let fission_src =
  "int a[2048]; int b[2048]; int c[2048];\n\
   int main() {\n\
   \  int n = 2048;\n\
   \  for (int i = 0; i < n; i++) {\n\
   \    a[i] = (i * 7 + 3) % 101;\n\
   \    b[i] = 0;\n\
   \    c[i] = (i * 5 + 1) % 97;\n\
   \  }\n\
   \  int s = 1;\n\
   \  for (int t = 0; t < 24; t++) {\n\
   \    for (int i = 0; i < 2048; i++) {\n\
   \      s = s * 3 + a[i];\n\
   \      b[i] = c[i] * 2 + t;\n\
   \    }\n\
   \  }\n\
   \  print_int(s);\n\
   \  print_int(b[5]);\n\
   \  print_int(b[2000]);\n\
   \  return 0;\n\
   }"

let fission_prepared =
  lazy
    (Janus.prepare
       ~cfg:(Janus.config ~threads:4 ~fission:true ())
       (compile fission_src))

(* rebuild a schedule, mapping every fission descriptor through [f];
   LOOP_FINISH rules of a fissioned loop share the fission descriptor's
   offset (it begins with the loop descriptor), so that sharing must
   survive the rewrite *)
let map_fission_descs f (s : Schedule.t) =
  let fission_offs =
    List.filter_map
      (fun (r : Rule.t) ->
         if r.Rule.id = Rule.LOOP_FISSION then Some r.Rule.data else None)
      s.Schedule.rules
  in
  let b = Schedule.builder s.Schedule.channel in
  let loop_off = Hashtbl.create 8
  and check_off = Hashtbl.create 8
  and fiss_off = Hashtbl.create 8 in
  let remap_fission data =
    match Hashtbl.find_opt fiss_off data with
    | Some o -> o
    | None ->
      let o = Schedule.add_fission_desc b (f (Schedule.fission_desc s data)) in
      Hashtbl.replace fiss_off data o;
      o
  in
  List.iter
    (fun (r : Rule.t) ->
       match r.Rule.id with
       | Rule.LOOP_FISSION ->
         Schedule.add_rule b
           { r with Rule.data = Int64.of_int (remap_fission r.Rule.data) }
       | (Rule.LOOP_INIT | Rule.LOOP_FINISH)
         when List.mem r.Rule.data fission_offs ->
         Schedule.add_rule b
           { r with Rule.data = Int64.of_int (remap_fission r.Rule.data) }
       | Rule.LOOP_INIT | Rule.LOOP_FINISH ->
         let off =
           match Hashtbl.find_opt loop_off r.Rule.data with
           | Some o -> o
           | None ->
             let o =
               Schedule.add_loop_desc b (Schedule.loop_desc s r.Rule.data)
             in
             Hashtbl.replace loop_off r.Rule.data o;
             o
         in
         Schedule.add_rule b { r with Rule.data = Int64.of_int off }
       | Rule.MEM_BOUNDS_CHECK ->
         let off =
           match Hashtbl.find_opt check_off r.Rule.data with
           | Some o -> o
           | None ->
             let o =
               Schedule.add_check_desc b (Schedule.check_desc s r.Rule.data)
             in
             Hashtbl.replace check_off r.Rule.data o;
             o
         in
         Schedule.add_rule b { r with Rule.data = Int64.of_int off }
       | _ -> Schedule.add_rule b r)
    s.Schedule.rules;
  Schedule.build b

let test_fission_schedule_lints_clean () =
  let p = Lazy.force fission_prepared in
  let s = p.Janus.p_schedule in
  Alcotest.(check bool) "has a LOOP_FISSION rule" true
    (List.exists
       (fun (r : Rule.t) -> r.Rule.id = Rule.LOOP_FISSION)
       s.Schedule.rules);
  Alcotest.(check (list string)) "no lint errors" []
    (List.map (fun f -> f.Verify.code) (errors (Verify.lint p.Janus.p_image s)))

let test_fission_parallel_residue_caught () =
  (* mark the sequential residue parallel: the verifier's independent
     re-derivation must refuse to prove the chain carried-free *)
  let p = Lazy.force fission_prepared in
  let corrupted =
    map_fission_descs
      (fun (fd : Desc.fission_desc) ->
         {
           fd with
           Desc.fd_groups =
             List.map
               (fun (g : Desc.fission_group) ->
                  { g with Desc.fg_parallel = true })
               fd.Desc.fd_groups;
         })
      p.Janus.p_schedule
  in
  Alcotest.(check bool) "parallel residue flagged" true
    (has_code "fission-parallel-unsound" (Verify.lint p.Janus.p_image corrupted));
  (* and the deployment path demotes rather than runs the bad split *)
  let native = Janus.run_native p.Janus.p_image in
  let run = Janus.run_scheduled p.Janus.p_image corrupted in
  Alcotest.(check string) "output still native" native.Janus.output
    run.Janus.output

let test_fission_dropped_insn_caught () =
  (* drop one instruction from a sub-loop: it would never execute, and
     the coverage check must say so *)
  let p = Lazy.force fission_prepared in
  let corrupted =
    map_fission_descs
      (fun (fd : Desc.fission_desc) ->
         {
           fd with
           Desc.fd_groups =
             List.map
               (fun (g : Desc.fission_group) ->
                  if g.Desc.fg_parallel then g
                  else { g with Desc.fg_insns = List.tl g.Desc.fg_insns })
               fd.Desc.fd_groups;
         })
      p.Janus.p_schedule
  in
  Alcotest.(check bool) "missing instruction flagged" true
    (has_code "fission-coverage" (Verify.lint p.Janus.p_image corrupted))

(* ------------------------------------------------------------------ *)
(* The whole suite verifies clean                                      *)
(* ------------------------------------------------------------------ *)

let test_suite_schedules_verify_clean () =
  List.iter
    (fun (b : Janus_suite.Suite.benchmark) ->
       let img = Janus_suite.Suite.compile b in
       let p =
         Janus.prepare ~train_input:(Janus_suite.Suite.train_input b) img
       in
       let findings = Verify.lint img p.Janus.p_schedule in
       Alcotest.(check (list string))
         (b.Janus_suite.Suite.name ^ " lint errors")
         []
         (List.map (fun f -> f.Verify.code) (errors findings)))
    Janus_suite.Suite.all

let tests =
  [
    Alcotest.test_case "liveness basics" `Quick test_liveness_basic;
    Alcotest.test_case "reaching definitions basics" `Quick
      test_reachdefs_basic;
    Alcotest.test_case "memdep: recurrence carried" `Quick
      test_memdep_recurrence_carried;
    Alcotest.test_case "memdep: doall clean" `Quick test_memdep_doall_clean;
    Alcotest.test_case "crosscheck clean on guest" `Quick
      test_crosscheck_clean_on_guest;
    Alcotest.test_case "clean schedule lints clean" `Quick test_clean_schedule;
    Alcotest.test_case "corruption: dangling address" `Quick
      test_dangling_address;
    Alcotest.test_case "corruption: unpaired LOOP_INIT" `Quick
      test_unpaired_loop_init;
    Alcotest.test_case "corruption: overlapping privatisation" `Quick
      test_overlapping_privatisation;
    Alcotest.test_case "corruption: live register privatised" `Quick
      test_live_register_privatised;
    Alcotest.test_case "corruption: descriptor out of bounds" `Quick
      test_descriptor_out_of_bounds;
    Alcotest.test_case "corruption: direction mismatch" `Quick
      test_direction_mismatch;
    Alcotest.test_case "demote drops one loop's rules" `Quick
      test_demote_drops_loop_rules;
    Alcotest.test_case "corrupt schedule runs sequentially" `Quick
      test_corrupt_schedule_runs_sequentially;
    Alcotest.test_case "unattributable corruption drops all rules" `Quick
      test_fully_corrupt_schedule_drops_all_rules;
    Alcotest.test_case "fission schedule lints clean" `Quick
      test_fission_schedule_lints_clean;
    Alcotest.test_case "corruption: parallel fission residue" `Quick
      test_fission_parallel_residue_caught;
    Alcotest.test_case "corruption: dropped fission instruction" `Quick
      test_fission_dropped_insn_caught;
    Alcotest.test_case "all suite schedules verify clean" `Slow
      test_suite_schedules_verify_clean;
  ]
