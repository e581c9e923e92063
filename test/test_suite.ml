(* Suite-level tests: every synthetic SPEC-like benchmark compiles,
   runs, analyses, and (for the nine parallelisable ones) produces
   bit-identical output under the full Janus pipeline. *)

open Janus_core
module Suite = Janus_suite.Suite
module Program = Janus_vm.Program
module Run = Janus_vm.Run
module Machine = Janus_vm.Machine
module Memory = Janus_vm.Memory
module Dbm = Janus_dbm.Dbm
module Runtime = Janus_runtime.Runtime

let native b ?options () =
  let img = Suite.compile ?options b in
  (img, Janus.run_native ~input:(Suite.ref_input b) img)

let test_all_compile_and_run () =
  List.iter
    (fun (b : Suite.benchmark) ->
       let _, r = native b () in
       Alcotest.(check int) (b.Suite.name ^ " exit") 0 r.Janus.exit_code;
       Alcotest.(check bool) (b.Suite.name ^ " output") true
         (String.length r.Janus.output > 0))
    Suite.all

let test_deterministic () =
  List.iter
    (fun (b : Suite.benchmark) ->
       let _, r1 = native b () in
       let _, r2 = native b () in
       Alcotest.(check string) b.Suite.name r1.Janus.output r2.Janus.output;
       Alcotest.(check int) (b.Suite.name ^ " cycles") r1.Janus.cycles
         r2.Janus.cycles)
    [ Option.get (Suite.find "470.lbm"); Option.get (Suite.find "429.mcf") ]

let test_all_analysable () =
  List.iter
    (fun (b : Suite.benchmark) ->
       let img = Suite.compile b in
       let t = Janus_analysis.Analysis.analyse_image img in
       Alcotest.(check bool) (b.Suite.name ^ " has loops") true
         (List.length t.Janus_analysis.Analysis.reports > 0))
    Suite.all

let janus_matches_native (b : Suite.benchmark) ?options ~cfg () =
  let img, nat = native b ?options () in
  let par =
    Janus.parallelise ~cfg ~train_input:(Suite.train_input b)
      ~input:(Suite.ref_input b) img
  in
  Alcotest.(check string) (b.Suite.name ^ " output") nat.Janus.output
    par.Janus.output;
  (nat, par)

let test_nine_correct_full_janus () =
  List.iter
    (fun b -> ignore (janus_matches_native b ~cfg:(Janus.config ()) ()))
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_nine_correct_all_configs () =
  List.iter
    (fun b ->
       List.iter
         (fun cfg -> ignore (janus_matches_native b ~cfg ()))
         [
           Janus.config ~use_profile:false ~use_checks:false ();
           Janus.config ~use_checks:false ();
           Janus.config ~threads:4 ();
           Janus.config ~threads:2 ();
         ])
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_sixteen_correct_under_janus () =
  (* the non-parallelisable benchmarks must also run unharmed under the
     full pipeline (loops rejected or safely checked) *)
  List.iter
    (fun b -> ignore (janus_matches_native b ~cfg:(Janus.config ()) ()))
    (List.filter (fun b -> not b.Suite.parallelisable) Suite.all)

let test_nine_correct_on_icc_binaries () =
  let options = { Janus_jcc.Jcc.default_options with vendor = Janus_jcc.Jcc.Icc } in
  List.iter
    (fun b ->
       ignore (janus_matches_native b ~options ~cfg:(Janus.config ()) ()))
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_nine_correct_on_avx_binaries () =
  let options = { Janus_jcc.Jcc.default_options with avx = true } in
  List.iter
    (fun b ->
       ignore (janus_matches_native b ~options ~cfg:(Janus.config ()) ()))
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_nine_correct_on_o2_binaries () =
  let options = { Janus_jcc.Jcc.default_options with opt = 2 } in
  List.iter
    (fun b ->
       ignore (janus_matches_native b ~options ~cfg:(Janus.config ()) ()))
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_autopar_binaries_run () =
  (* compiler-parallelised builds (Fig. 11's gcc/icc bars) must produce
     the same output as the serial build *)
  List.iter
    (fun b ->
       let _, serial = native b () in
       List.iter
         (fun vendor ->
            let options =
              { Janus_jcc.Jcc.default_options with vendor; autopar = 8 }
            in
            let img = Suite.compile ~options b in
            let r = Janus.run_native ~input:(Suite.ref_input b) img in
            Alcotest.(check string)
              (Printf.sprintf "%s autopar" b.Suite.name)
              serial.Janus.output r.Janus.output)
         [ Janus_jcc.Jcc.Gcc; Janus_jcc.Jcc.Icc ])
    (List.filter (fun b -> b.Suite.parallelisable) Suite.all)

let test_fig7_shape () =
  (* the headline claims of Fig. 7, as ordering properties *)
  let run b cfg =
    let b = Option.get (Suite.find b) in
    let img = Suite.compile b in
    let nat = Janus.run_native ~input:(Suite.ref_input b) img in
    let r =
      Janus.parallelise ~cfg ~train_input:(Suite.train_input b)
        ~input:(Suite.ref_input b) img
    in
    Janus.speedup ~native:nat ~run:r
  in
  let janus = Janus.config () in
  let profile_only = Janus.config ~use_checks:false () in
  (* libquantum and lbm: large speedups *)
  Alcotest.(check bool) "libquantum > 4x" true (run "462.libquantum" janus > 4.0);
  Alcotest.(check bool) "lbm > 4x" true (run "470.lbm" janus > 4.0);
  (* bwaves needs checks+speculation: profile-only stays near 1 *)
  let bw_prof = run "410.bwaves" profile_only in
  let bw_janus = run "410.bwaves" janus in
  Alcotest.(check bool)
    (Printf.sprintf "bwaves checks unlock speedup (%.2f -> %.2f)" bw_prof
       bw_janus)
    true
    (bw_prof < 1.2 && bw_janus > 1.8);
  (* GemsFDTD similarly needs checks *)
  let gems_prof = run "459.GemsFDTD" profile_only in
  let gems_janus = run "459.GemsFDTD" janus in
  Alcotest.(check bool) "GemsFDTD checks help" true
    (gems_janus > gems_prof +. 0.3);
  (* h264ref stays below native *)
  Alcotest.(check bool) "h264ref slower than native" true
    (run "464.h264ref" janus < 1.0)

(* DOACROSS hands each worker its predecessor's context; the
   first-private scalar slots must come from the predecessor's slots
   too, not from main memory's pre-loop value, or sphinx3's final
   memory differs from native at every thread count above one. The
   cycles are pinned: the hand-off costs the same either way. *)
let test_sphinx3_doacross_matches_native () =
  let b = Suite.find_exn "482.sphinx3" in
  let img, nat = native b () in
  Alcotest.(check string) "native digest" "4529edf437ac999a2b7dcc131fc6e848"
    nat.Janus.mem_digest;
  let cfg = Janus.config ~use_doacross:true () in
  let store = Pipeline.store () in
  let p = Janus.prepare ~cfg ~train_input:(Suite.train_input b) ~store img in
  List.iter
    (fun (threads, cycles) ->
       let r =
         Janus.run_parallel ~cfg:{ cfg with Janus.threads }
           ~input:(Suite.ref_input b) ~store p
       in
       let name what = Printf.sprintf "%dt %s" threads what in
       Alcotest.(check string) (name "output") nat.Janus.output r.Janus.output;
       Alcotest.(check string) (name "mem_digest") nat.Janus.mem_digest
         r.Janus.mem_digest;
       Alcotest.(check int) (name "cycles") cycles r.Janus.cycles)
    [ (2, 50_502_412); (4, 43_187_310); (8, 41_607_669) ]

(* The interpreter's hot path allocates (almost) nothing per guest
   instruction. Over the host benchmark's twelve programs at training
   scale, whole native and DBM-only runs (image load, translation and
   the final memory digest included) stay within 0.25 and 0.45 minor
   words per retired instruction (0.19 and 0.36 measured); nearly all
   of that is [Program.load] and translation. The steady state is
   budgeted on its own, so a hot-path regression cannot hide behind
   that one-off work: native execution after [Program.load] and a
   DBM-only rerun over an already-warm code cache each stay within
   0.005 (0.0013 and 0.0008 measured). Every count is deterministic
   for a given build. A boxed target returned per taken branch put
   whole native runs at 0.33; that and a closure allocated per DBM
   dispatch put DBM-only at 0.99. An int64 box per register write or
   memory word would cost several words more. *)
let test_allocation_budget () =
  let programs = Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ] in
  (* [run] reports the minor words and the instructions of the window
     it measures *)
  let words_per_insn run =
    let words, insns =
      List.fold_left
        (fun (words, insns) (b : Suite.benchmark) ->
           let w, n = run ~input:(Suite.train_input b) (Suite.compile b) in
           (words +. w, insns + n))
        (0.0, 0) programs
    in
    words /. float_of_int insns
  in
  let measure f =
    let w0 = Gc.minor_words () in
    let n = f () in
    (Gc.minor_words () -. w0, n)
  in
  let whole run ~input img = measure (fun () -> (run ~input img).Janus.icount) in
  let fresh prog input =
    let ctx = Run.fresh_context prog in
    List.iter (fun v -> Queue.push v ctx.Machine.input) input;
    ctx
  in
  let native =
    words_per_insn (whole (fun ~input img -> Janus.run_native ~input img))
  in
  let dbm =
    words_per_insn (whole (fun ~input img -> Janus.run_dbm_only ~input img))
  in
  let native_hot =
    words_per_insn (fun ~input img ->
        let prog = Program.load img in
        let ctx = fresh prog input in
        measure (fun () ->
            Run.run_from prog ctx ~fuel:Run.default_fuel;
            ctx.Machine.icount))
  in
  let dbm_warm =
    words_per_insn (fun ~input img ->
        let prog = Program.load img in
        let dbm = Dbm.create prog in
        let cache = Dbm.new_cache Dbm.Main in
        ignore (Dbm.run dbm cache (fresh prog input));
        let ctx = fresh prog input in
        measure (fun () ->
            ignore (Dbm.run dbm cache ctx);
            ctx.Machine.icount))
  in
  if native > 0.25 || dbm > 0.45 || native_hot > 0.005 || dbm_warm > 0.005
  then
    Alcotest.failf
      "minor words per instruction: native %.2f (budget 0.25), DBM-only \
       %.2f (budget 0.45); steady state: native after load %.4f, warm \
       DBM rerun %.4f (budget 0.005 each)"
      native dbm native_hot dbm_warm

(* A run pays only for the guest memory it touches. Stacks are used
   from their top and TLS blocks from their base, so after native and
   full-Janus (8-thread) runs of the host benchmark's twelve programs at
   training scale every stack, worker-stack and TLS window is at most
   16 KiB (4 KiB measured). A backing anchored at the region's base
   materialised the whole main stack (1,023 KiB), 256 KiB per worker
   stack and 64 KiB per TLS block on every execution. The Janus run is
   driven through [Dbm.run] with the runtime installed, so its memory
   stays readable afterwards. *)
let test_materialised_budget () =
  let budget = 16 * 1024 in
  let programs = Eval.nine @ Suite.adversarial @ [ Suite.adv_fission ] in
  let thread_private (r : Memory.region) =
    let is p = String.starts_with ~prefix:p r.Memory.name in
    String.equal r.Memory.name "stack" || is "tstack" || is "tls"
  in
  let over = ref [] in
  let audit run (prog : Program.t) =
    List.iter
      (fun (r : Memory.region) ->
         let n = Bytes.length r.Memory.bytes in
         if thread_private r && n > budget then
           over := Printf.sprintf "%s %s %d KiB" run r.Memory.name (n / 1024)
                   :: !over)
      prog.Program.mem.Memory.regions
  in
  let fresh prog input =
    let ctx = Run.fresh_context prog in
    List.iter (fun v -> Queue.push v ctx.Machine.input) input;
    ctx
  in
  List.iter
    (fun (b : Suite.benchmark) ->
       let img = Suite.compile b and input = Suite.train_input b in
       let prog = Program.load img in
       Run.run_from prog (fresh prog input) ~fuel:Run.default_fuel;
       audit (b.Suite.name ^ " native") prog;
       let p = Janus.prepare ~train_input:input img in
       let prog = Program.load img in
       let dbm = Dbm.create ~schedule:p.Janus.p_schedule prog in
       let rt =
         Runtime.create ~config:{ Runtime.default_config with threads = 8 } dbm
       in
       Runtime.install rt;
       ignore (Dbm.run dbm rt.Runtime.main_cache (fresh prog input));
       audit (b.Suite.name ^ " janus") prog)
    programs;
  match List.rev !over with
  | [] -> ()
  | over ->
    Alcotest.failf "%d windows over the %d KiB budget, first %s"
      (List.length over) (budget / 1024)
      (String.concat ", " (List.filteri (fun i _ -> i < 3) over))

let tests =
  [
    Alcotest.test_case "all compile and run" `Quick test_all_compile_and_run;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "all analysable" `Quick test_all_analysable;
    Alcotest.test_case "allocation budget per instruction" `Quick
      test_allocation_budget;
    Alcotest.test_case "materialised guest memory budget" `Quick
      test_materialised_budget;
    Alcotest.test_case "nine correct under full janus" `Quick
      test_nine_correct_full_janus;
    Alcotest.test_case "nine correct all configs" `Slow
      test_nine_correct_all_configs;
    Alcotest.test_case "sixteen correct under janus" `Slow
      test_sixteen_correct_under_janus;
    Alcotest.test_case "nine correct on icc binaries" `Slow
      test_nine_correct_on_icc_binaries;
    Alcotest.test_case "nine correct on avx binaries" `Slow
      test_nine_correct_on_avx_binaries;
    Alcotest.test_case "nine correct on O2 binaries" `Slow
      test_nine_correct_on_o2_binaries;
    Alcotest.test_case "autopar binaries run" `Slow test_autopar_binaries_run;
    Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
    Alcotest.test_case "sphinx3 doacross matches native" `Slow
      test_sphinx3_doacross_matches_native;
  ]
