(* Tests for the dynamic binary modifier: translation, rule
   transformations, code-cache behaviour, fragment linking, trace
   promotion and event dispatch. *)

open Janus_vx
open Janus_vm
module Dbm = Janus_dbm.Dbm
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule

let reg r = Operand.Reg r
let imm i = Operand.Imm (Int64.of_int i)

(* a two-block program: a counted loop then exit *)
let loop_image ~n =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm 0));
  Builder.ins b (Insn.Mov (reg Reg.RAX, imm 0));
  Builder.label b "head";
  Builder.ins b (Insn.Cmp (reg Reg.RCX, imm n));
  Builder.jcc b Cond.Ge "done";
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RAX, reg Reg.RCX));
  Builder.ins b (Insn.Alu (Insn.Add, reg Reg.RCX, imm 1));
  Builder.jmp b "head";
  Builder.label b "done";
  Builder.ins b (Insn.Mov (reg Reg.RDI, reg Reg.RAX));
  Builder.ins b (Insn.Syscall Insn.sys_write_int);
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  Builder.to_image b ~entry:"_start"

(* the slots of a basic block, as [Dbm.translate] builds one *)
let block_slots (f : Dbm.fragment) =
  match f.Dbm.f_code with
  | Dbm.Block slots -> slots
  | Dbm.Trace _ -> Alcotest.fail "translate builds basic blocks"

let run_dbm ?schedule image =
  let prog = Program.load ~code:(Code.of_image image) image in
  let dbm = Dbm.create ?schedule prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  let outcome = Dbm.run dbm cache ctx in
  (dbm, cache, ctx, outcome)

let test_dbm_matches_native () =
  let img = loop_image ~n:50 in
  let native = Run.run img in
  let _, _, ctx, outcome = run_dbm img in
  Alcotest.(check bool) "halted" true (outcome = `Halted);
  Alcotest.(check string) "output" native.Run.output
    (Buffer.contents ctx.Machine.out);
  (* trace promotion elides unconditional jumps, so the DBM may retire
     slightly fewer instructions than native execution *)
  Alcotest.(check bool) "icount close" true
    (ctx.Machine.icount <= native.Run.icount
     && ctx.Machine.icount > (native.Run.icount * 3) / 4)

let test_translation_charged () =
  let img = loop_image ~n:50 in
  let native = Run.run img in
  let dbm, _, ctx, _ = run_dbm img in
  Alcotest.(check bool) "translated instructions counted" true
    (dbm.Dbm.stats.Dbm.translated_insns > 0);
  Alcotest.(check bool) "translation cycles charged" true
    (ctx.Machine.cycles > native.Run.cycles
     || dbm.Dbm.stats.Dbm.traces_built > 0)

let test_fragments_cached () =
  let img = loop_image ~n:200 in
  let dbm, cache, _, _ = run_dbm img in
  (* the loop executes 200 times but each block is translated once
     (plus possible trace promotions) *)
  Alcotest.(check bool) "few fragments" true
    (Machine.Int_table.length cache.Dbm.frags <= 8);
  Alcotest.(check bool) "many dispatches" true
    (dbm.Dbm.stats.Dbm.dispatches > 200)

let test_trace_promotion () =
  let img = loop_image ~n:200 in
  let dbm, _, _, _ = run_dbm img in
  Alcotest.(check bool) "hot back edge promoted to a trace" true
    (dbm.Dbm.stats.Dbm.traces_built >= 1)

let test_cache_flush () =
  let img = loop_image ~n:10 in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  ignore (Dbm.run dbm cache ctx);
  Alcotest.(check bool) "cache populated" true
    (Machine.Int_table.length cache.Dbm.frags > 0);
  Dbm.flush_cache dbm cache;
  Alcotest.(check int) "cache empty after flush" 0
    (Machine.Int_table.length cache.Dbm.frags);
  Alcotest.(check int) "flush counted" 1 dbm.Dbm.stats.Dbm.cache_flushes

let test_out_of_fuel_is_typed () =
  let img = loop_image ~n:1_000_000 in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  (* a tiny budget cannot finish a million-iteration loop; the DBM must
     report that as a value, not an exception *)
  (match Dbm.run ~fuel:50 dbm cache ctx with
   | `Out_of_fuel addr ->
     Alcotest.(check bool) "stops inside .text" true (addr >= Layout.text_base)
   | `Halted -> Alcotest.fail "cannot halt on 50 instructions"
   | `Yielded -> Alcotest.fail "nothing yields here");
  (* the same program with enough fuel halts normally *)
  let img' = loop_image ~n:10 in
  let prog' = Program.load ~code:(Code.of_image img') img' in
  let dbm' = Dbm.create prog' in
  let cache' = Dbm.new_cache Dbm.Main in
  let ctx' = Run.fresh_context prog' in
  match Dbm.run dbm' cache' ctx' with
  | `Halted -> ()
  | _ -> Alcotest.fail "short loop should halt"

(* ------------------------------------------------------------------ *)
(* Transformation handlers                                             *)
(* ------------------------------------------------------------------ *)

let test_privatise_transform () =
  let r = Rule.make ~addr:0 ~data:3L Rule.MEM_PRIVATISE in
  let original =
    Insn.Mov (Operand.Mem (Operand.mem_abs 0x600010), reg Reg.RAX)
  in
  match Dbm.apply_transform r original with
  | Insn.Mov (Operand.Mem m, Operand.Reg Reg.RAX) ->
    Alcotest.(check bool) "TLS base" true (m.Operand.base = Some Reg.TLS);
    Alcotest.(check int) "slot offset" 24 m.Operand.disp
  | i -> Alcotest.failf "unexpected rewrite: %s" (Insn.to_string i)

let test_update_bound_transform () =
  let r = Rule.make ~addr:0 ~data:1L Rule.LOOP_UPDATE_BOUND in
  let original = Insn.Cmp (reg Reg.RBX, imm 100) in
  (match Dbm.apply_transform r original with
   | Insn.Cmp (Operand.Reg Reg.RBX, Operand.Mem m) ->
     Alcotest.(check bool) "bound from TLS slot 0" true
       (m.Operand.base = Some Reg.TLS && m.Operand.disp = 0)
   | i -> Alcotest.failf "unexpected rewrite: %s" (Insn.to_string i));
  (* operand index 0 replaces the first operand *)
  let r0 = Rule.make ~addr:0 ~data:0L Rule.LOOP_UPDATE_BOUND in
  match Dbm.apply_transform r0 (Insn.Cmp (imm 100, reg Reg.RBX)) with
  | Insn.Cmp (Operand.Mem _, Operand.Reg Reg.RBX) -> ()
  | i -> Alcotest.failf "unexpected rewrite: %s" (Insn.to_string i)

let test_main_stack_transform () =
  let r = Rule.make ~addr:0 Rule.MEM_MAIN_STACK in
  let original =
    Insn.Fmov
      (Insn.Scalar, Operand.Freg (Reg.XMM 1),
       Operand.Fmem (Operand.mem_base ~disp:(-24) Reg.RBP))
  in
  match Dbm.apply_transform r original with
  | Insn.Fmov (Insn.Scalar, Operand.Freg _, Operand.Fmem m) ->
    Alcotest.(check bool) "base swapped to SHARED" true
      (m.Operand.base = Some Reg.SHARED);
    Alcotest.(check int) "displacement kept" (-24) m.Operand.disp
  | i -> Alcotest.failf "unexpected rewrite: %s" (Insn.to_string i)

let test_rule_kind_filtering () =
  (* workers receive transformations; the main thread does not *)
  let priv = Rule.make ~addr:0 ~data:1L Rule.MEM_PRIVATISE in
  let init = Rule.make ~addr:0 Rule.LOOP_INIT in
  Alcotest.(check bool) "worker gets privatise" true
    (Dbm.applies (Dbm.Worker 0) priv);
  Alcotest.(check bool) "main does not get privatise" false
    (Dbm.applies Dbm.Main priv);
  Alcotest.(check bool) "main gets loop init" true (Dbm.applies Dbm.Main init);
  Alcotest.(check bool) "worker does not get loop init" false
    (Dbm.applies (Dbm.Worker 0) init)

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let test_events_fire_in_order () =
  let img = loop_image ~n:5 in
  (* attach two profiling events to the loop header *)
  let header_addr =
    (* header = address after the two initial movs *)
    let open Insn in
    let m1 = Mov (reg Reg.RCX, imm 0) in
    let m2 = Mov (reg Reg.RAX, imm 0) in
    Layout.text_base + Encode.size m1 + Encode.size m2
  in
  let b = Schedule.builder Schedule.Profiling in
  Schedule.add_rule b (Rule.make ~addr:header_addr ~data:1L Rule.PROF_LOOP_START);
  Schedule.add_rule b (Rule.make ~addr:header_addr ~data:2L Rule.PROF_LOOP_ITER);
  let schedule = Schedule.build b in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ~schedule prog in
  let log = ref [] in
  dbm.Dbm.on_event <-
    (fun _ _ _ r ->
       log := Int64.to_int r.Rule.data :: !log;
       Dbm.Continue);
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  ignore (Dbm.run dbm cache ctx);
  (* header executes 6 times (5 iterations + exit test); both events
     fire each time, START before ITER *)
  Alcotest.(check int) "event count" 12 (List.length !log);
  Alcotest.(check bool) "order" true
    (match List.rev !log with 1 :: 2 :: _ -> true | _ -> false)

let test_divert_action () =
  let img = loop_image ~n:1000 in
  (* divert at the loop header straight to the exit block *)
  let header_addr =
    let open Insn in
    Layout.text_base
    + Encode.size (Mov (reg Reg.RCX, imm 0))
    + Encode.size (Mov (reg Reg.RAX, imm 0))
  in
  (* exit block address: find it by decoding for the first syscall *)
  let exit_addr =
    List.fold_left
      (fun acc (off, i, _) ->
         match i with
         | Insn.Mov (Operand.Reg Reg.RDI, Operand.Reg Reg.RAX) ->
           min (Layout.text_base + off) acc
         | _ -> acc)
      max_int (Decode.all img.Image.text)
  in
  let b = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule b (Rule.make ~addr:header_addr Rule.LOOP_INIT);
  let schedule = Schedule.build b in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ~schedule prog in
  dbm.Dbm.on_event <- (fun _ _ _ _ -> Dbm.Divert exit_addr);
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  ignore (Dbm.run dbm cache ctx);
  (* the loop body never ran: rax = 0 *)
  Alcotest.(check string) "loop skipped" "0\n" (Buffer.contents ctx.Machine.out)

let test_stop_action () =
  let img = loop_image ~n:1000 in
  let b = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule b
    (Rule.make ~addr:Layout.text_base Rule.THREAD_SCHEDULE);
  let schedule = Schedule.build b in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ~schedule prog in
  dbm.Dbm.on_event <- (fun _ _ _ _ -> Dbm.Stop_thread);
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  let outcome = Dbm.run dbm cache ctx in
  Alcotest.(check bool) "yielded immediately" true (outcome = `Yielded);
  Alcotest.(check string) "nothing ran" "" (Buffer.contents ctx.Machine.out)

(* worker-specialised translation: the same address translates
   differently in main and worker caches *)
let test_per_thread_specialisation () =
  let img = loop_image ~n:10 in
  let cmp_addr =
    let open Insn in
    Layout.text_base
    + Encode.size (Mov (reg Reg.RCX, imm 0))
    + Encode.size (Mov (reg Reg.RAX, imm 0))
  in
  let b = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule b (Rule.make ~addr:cmp_addr ~data:1L Rule.LOOP_UPDATE_BOUND);
  let schedule = Schedule.build b in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ~schedule prog in
  let mcache = Dbm.new_cache Dbm.Main in
  let wcache = Dbm.new_cache (Dbm.Worker 0) in
  let ctx = Run.fresh_context prog in
  let mfrag = Dbm.translate dbm mcache ctx cmp_addr in
  let wfrag = Dbm.translate dbm wcache ctx cmp_addr in
  let first_insn f = (block_slots f).(0).Dbm.s_insn in
  (match first_insn mfrag with
   | Insn.Cmp (_, Operand.Imm _) -> ()
   | i -> Alcotest.failf "main cache should be untransformed: %s" (Insn.to_string i));
  match first_insn wfrag with
  | Insn.Cmp (_, Operand.Mem m) ->
    Alcotest.(check bool) "worker bound from TLS" true
      (m.Operand.base = Some Reg.TLS)
  | i -> Alcotest.failf "worker cache should be transformed: %s" (Insn.to_string i)

(* MEM_PREFETCH inserts a zero-length Prefetch slot ahead of the
   access, displaced by the rule's distance *)
let test_prefetch_insertion () =
  let b = Builder.create () in
  Builder.label b "_start";
  (* read from the (always-mapped) main stack, well below the red zone *)
  let base = Layout.stack_top - 4096 in
  Builder.ins b (Insn.Mov (reg Reg.RCX, imm base));
  let load =
    Insn.Fmov
      (Insn.Scalar, Operand.Freg (Reg.XMM 0),
       Operand.Fmem (Operand.mem_base ~disp:16 Reg.RCX))
  in
  Builder.ins b load;
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  let img = Builder.to_image b ~entry:"_start" in
  let load_addr =
    Layout.text_base + Encode.size (Insn.Mov (reg Reg.RCX, imm base))
  in
  let sb = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule sb
    (Rule.make ~addr:load_addr ~data:512L Rule.MEM_PREFETCH);
  let schedule = Schedule.build sb in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ~schedule prog in
  let cache = Dbm.new_cache (Dbm.Worker 0) in
  let ctx = Run.fresh_context prog in
  let frag = Dbm.translate dbm cache ctx Layout.text_base in
  let slots = Array.to_list (block_slots frag) in
  (* the prefetch hint precedes the load, targets +512 and occupies no
     application bytes *)
  (match
     List.find_opt
       (fun (s : Dbm.slot) ->
          match s.Dbm.s_insn with Insn.Prefetch _ -> true | _ -> false)
       slots
   with
   | Some s ->
     Alcotest.(check int) "zero length" 0 s.Dbm.s_len;
     Alcotest.(check int) "at the load's address" load_addr s.Dbm.s_addr;
     (match s.Dbm.s_insn with
      | Insn.Prefetch m ->
        Alcotest.(check int) "distance applied" (16 + 512) m.Operand.disp;
        Alcotest.(check bool) "same base" true (m.Operand.base = Some Reg.RCX)
      | _ -> assert false)
   | None -> Alcotest.fail "no prefetch slot inserted");
  let idx_of p =
    let rec go i = function
      | [] -> -1
      | s :: tl -> if p s then i else go (i + 1) tl
    in
    go 0 slots
  in
  let pf_idx =
    idx_of (fun s ->
        match s.Dbm.s_insn with Insn.Prefetch _ -> true | _ -> false)
  in
  let load_idx =
    idx_of (fun s ->
        match s.Dbm.s_insn with Insn.Fmov _ -> true | _ -> false)
  in
  Alcotest.(check bool) "prefetch precedes the load" true (pf_idx < load_idx);
  (* executing the fragment still works and the hint is architecturally
     inert *)
  let native = Run.run img in
  let _, _, ctx', outcome =
    let dbm' = Dbm.create ~schedule prog in
    let cache' = Dbm.new_cache (Dbm.Worker 0) in
    let c = Run.fresh_context prog in
    let o = Dbm.run dbm' cache' c in
    (dbm', cache', c, o)
  in
  Alcotest.(check bool) "halted" true (outcome = `Halted);
  Alcotest.(check string) "same output" native.Run.output
    (Buffer.contents ctx'.Machine.out)

(* the dispatch census must count every context switch into the code
   cache — including each fragment's first (translate-path) execution,
   which the counter used to miss. Fragment execution counts survive
   trace promotion (the promoted fragment inherits f_execs), so summing
   them over the final cache gives the exact number of executions. *)
let test_dispatches_count_first_executions () =
  let check_img name img =
    let dbm, cache, _, outcome = run_dbm img in
    Alcotest.(check bool) (name ^ " halted") true (outcome = `Halted);
    let execs =
      Machine.Int_table.fold
        (fun _ f acc -> acc + f.Dbm.f_execs) cache.Dbm.frags 0
    in
    Alcotest.(check int) (name ^ ": dispatches = fragment executions")
      execs dbm.Dbm.stats.Dbm.dispatches;
    Alcotest.(check bool) (name ^ ": every built fragment dispatched") true
      (dbm.Dbm.stats.Dbm.dispatches >= dbm.Dbm.stats.Dbm.fragments_built)
  in
  (* a loop program: first executions plus many cache-hit re-dispatches *)
  check_img "loop" (loop_image ~n:50);
  (* a straight-line program: every dispatch is a first (translate-path)
     execution, so the pre-fix counter would read 0 here *)
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 7));
  Builder.ins b (Insn.Syscall Insn.sys_write_int);
  Builder.ins b (Insn.Mov (reg Reg.RDI, imm 0));
  Builder.ins b (Insn.Syscall Insn.sys_exit);
  check_img "straight-line" (Builder.to_image b ~entry:"_start")

(* forcing eager promotion (threshold 1) or disabling promotion
   entirely must not change what the program computes, only how the
   code cache is organised *)
let test_promote_threshold_knob () =
  let img = loop_image ~n:80 in
  let run_with threshold =
    let prog = Program.load ~code:(Code.of_image img) img in
    let dbm = Dbm.create ~promote_threshold:threshold prog in
    let cache = Dbm.new_cache Dbm.Main in
    let ctx = Run.fresh_context prog in
    let outcome = Dbm.run dbm cache ctx in
    Alcotest.(check bool) "halted" true (outcome = `Halted);
    (dbm, Buffer.contents ctx.Machine.out, Run.mem_digest ctx)
  in
  let eager, out_eager, mem_eager = run_with 1 in
  let never, out_never, mem_never = run_with max_int in
  Alcotest.(check bool) "eager promotion builds traces" true
    (eager.Dbm.stats.Dbm.traces_built >= 1);
  Alcotest.(check int) "disabled promotion builds none" 0
    never.Dbm.stats.Dbm.traces_built;
  Alcotest.(check string) "same output" out_eager out_never;
  Alcotest.(check string) "same final memory" mem_eager mem_never

let tests =
  [
    Alcotest.test_case "dbm matches native" `Quick test_dbm_matches_native;
    Alcotest.test_case "dispatches count first executions" `Quick
      test_dispatches_count_first_executions;
    Alcotest.test_case "promote threshold knob" `Quick
      test_promote_threshold_knob;
    Alcotest.test_case "translation charged" `Quick test_translation_charged;
    Alcotest.test_case "fragments cached" `Quick test_fragments_cached;
    Alcotest.test_case "trace promotion" `Quick test_trace_promotion;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "out of fuel is typed" `Quick test_out_of_fuel_is_typed;
    Alcotest.test_case "privatise transform" `Quick test_privatise_transform;
    Alcotest.test_case "update bound transform" `Quick
      test_update_bound_transform;
    Alcotest.test_case "main stack transform" `Quick test_main_stack_transform;
    Alcotest.test_case "rule kind filtering" `Quick test_rule_kind_filtering;
    Alcotest.test_case "events fire in order" `Quick test_events_fire_in_order;
    Alcotest.test_case "divert action" `Quick test_divert_action;
    Alcotest.test_case "stop action" `Quick test_stop_action;
    Alcotest.test_case "per-thread specialisation" `Quick
      test_per_thread_specialisation;
    Alcotest.test_case "prefetch insertion" `Quick test_prefetch_insertion;
  ]
