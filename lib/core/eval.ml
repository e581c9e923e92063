(** Regeneration of every table and figure in the paper's evaluation
    (§III), over the synthetic SPEC-like suite.

    Each [figN ()] returns typed rows and each [pp_figN] prints the
    series the paper reports. Absolute numbers come from the
    deterministic cost model; EXPERIMENTS.md compares their shape
    against the paper's. *)

module Suite = Janus_suite.Suite
module Profiler = Janus_profile.Profiler
module Loopanal = Janus_analysis.Loopanal
module Analysis = Janus_analysis.Analysis
module Jcc = Janus_jcc.Jcc
module Pool = Janus_pool.Pool

let nine = List.filter (fun b -> b.Suite.parallelisable) Suite.all

(* ------------------------------------------------------------------ *)
(* Evaluation context: shared artifact store + optional domain pool     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  store : Pipeline.store;
  pool : Pool.t option;
  evidence : Janus_vx.Image.t -> Pipeline.evidence option;
}

let ctx ?(store = Pipeline.default_store) ?pool ?(evidence = fun _ -> None)
    () =
  { store; pool; evidence }

let default_ctx = ctx ()

(* Per-benchmark rows are independent, so a context with a pool fans
   them out over domains; results come back in submission order, so the
   printed figures are byte-identical to a sequential run. *)
let par_map ctx f xs =
  match ctx.pool with Some p -> Pool.map p f xs | None -> List.map f xs

let compile ctx ?options (b : Suite.benchmark) =
  Pipeline.compile ~store:ctx.store ?options b.Suite.source

(* fig6 and the excall footprint historically profile at the profiler's
   own default budget, not the pipeline default; the fuel is part of the
   profile's cache key, so the distinction must be preserved *)
let profiler_default_cfg = Pipeline.config ~fuel:100_000_000 ()

(* ------------------------------------------------------------------ *)
(* Fig. 6: loop classification                                         *)
(* ------------------------------------------------------------------ *)

type category =
  | Static_doall
  | Dynamic_doall
  | Static_dep
  | Dynamic_dep
  | Incompatible

let categories =
  [ Static_doall; Dynamic_doall; Static_dep; Dynamic_dep; Incompatible ]

let category_name = function
  | Static_doall -> "static-doall"
  | Dynamic_doall -> "dynamic-doall"
  | Static_dep -> "static-dep"
  | Dynamic_dep -> "dynamic-dep"
  | Incompatible -> "incompatible"

type fig6_row = {
  f6_name : string;
  f6_static : (category * int) list;    (* loop counts *)
  f6_dynamic : (category * float) list; (* fraction of execution time *)
}

(* final category of one loop, given the dependence profile *)
let categorise (deps : Profiler.deps) (r : Loopanal.report) =
  let lid = r.Loopanal.loop.Janus_analysis.Looptree.lid in
  match r.Loopanal.cls with
  | Loopanal.Static_doall -> Static_doall
  | Loopanal.Static_dep _ -> Static_dep
  | Loopanal.Outer ->
    (* outer loops carry their inner loops' values across iterations;
       the paper has no separate bucket, so they count as static deps *)
    Static_dep
  | Loopanal.Incompatible _ -> Incompatible
  | Loopanal.Ambiguous _ ->
    if Profiler.has_dep deps lid then Dynamic_dep else Dynamic_doall

let fig6_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let analysis = Pipeline.analyse ~store:ctx.store ?pool:ctx.pool img in
  let coverage, deps =
    match
      Pipeline.profile ~store:ctx.store ~cfg:profiler_default_cfg
        ~train_input:(Suite.train_input b) img analysis
    with
    | Some cov, Some deps -> (cov, deps)
    | _ -> assert false (* the default config profiles both sides *)
  in
  let cats =
    List.map (fun r -> (r, categorise deps r)) analysis.Analysis.reports
  in
  let static =
    List.map
      (fun c -> (c, List.length (List.filter (fun (_, c') -> c' = c) cats)))
      categories
  in
  let dynamic =
    List.map
      (fun c ->
         let frac =
           List.fold_left
             (fun acc ((r : Loopanal.report), c') ->
                if c' = c then
                  acc
                  +. Profiler.fraction coverage
                       r.Loopanal.loop.Janus_analysis.Looptree.lid
                else acc)
             0.0 cats
         in
         (c, frac))
      categories
  in
  { f6_name = b.Suite.name; f6_static = static; f6_dynamic = dynamic }

let fig6 ?(ctx = default_ctx) () = par_map ctx (fig6_row ctx) Suite.all

let pp_fig6 ppf rows =
  Fmt.pf ppf
    "Fig. 6: loop classification (%% of loops | %% of execution time)@.";
  Fmt.pf ppf "%-18s %31s | %s@." "benchmark"
    "A%    C%    B%    D%    inc%" "A%    C%    B%    D%    inc%";
  List.iter
    (fun row ->
       let total =
         float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 row.f6_static)
       in
       let spct c =
         if total = 0.0 then 0.0
         else 100.0 *. float_of_int (List.assoc c row.f6_static) /. total
       in
       let dpct c = 100.0 *. List.assoc c row.f6_dynamic in
       Fmt.pf ppf "%-18s %5.1f %5.1f %5.1f %5.1f %5.1f | %5.1f %5.1f %5.1f %5.1f %5.1f@."
         row.f6_name (spct Static_doall) (spct Dynamic_doall) (spct Static_dep)
         (spct Dynamic_dep) (spct Incompatible) (dpct Static_doall)
         (dpct Dynamic_doall) (dpct Static_dep) (dpct Dynamic_dep)
         (dpct Incompatible))
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 7: whole-program speedups for the four configurations          *)
(* ------------------------------------------------------------------ *)

type fig7_row = {
  f7_name : string;
  f7_dbm : float;
  f7_static : float;
  f7_profile : float;
  f7_janus : float;
}

let run_configs ?(ctx = default_ctx) ?options (b : Suite.benchmark) ~threads =
  let img = compile ctx ?options b in
  let native = Janus.run_native ~input:(Suite.ref_input b) img in
  let sp r = Janus.speedup ~native ~run:r in
  let dbm = Janus.run_dbm_only ~input:(Suite.ref_input b) img in
  let go cfg =
    Janus.parallelise ~cfg ~train_input:(Suite.train_input b)
      ~input:(Suite.ref_input b) ?evidence:(ctx.evidence img)
      ~store:ctx.store ?pool:ctx.pool img
  in
  let static = go (Janus.config ~threads ~use_profile:false ~use_checks:false ()) in
  let profile = go (Janus.config ~threads ~use_checks:false ()) in
  let janus = go (Janus.config ~threads ()) in
  (native, sp dbm, sp static, sp profile, sp janus, janus)

let fig7_row ctx (b : Suite.benchmark) =
  let _, dbm, static, profile, janus, _ = run_configs ~ctx b ~threads:8 in
  { f7_name = b.Suite.name; f7_dbm = dbm; f7_static = static;
    f7_profile = profile; f7_janus = janus }

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun a x -> a +. log (max x 1e-9)) 0.0 xs
         /. float_of_int (List.length xs))

let fig7 ?(ctx = default_ctx) () =
  let rows = par_map ctx (fig7_row ctx) nine in
  let g f = geomean (List.map f rows) in
  rows
  @ [ { f7_name = "geomean"; f7_dbm = g (fun r -> r.f7_dbm);
        f7_static = g (fun r -> r.f7_static);
        f7_profile = g (fun r -> r.f7_profile);
        f7_janus = g (fun r -> r.f7_janus) } ]

let pp_fig7 ppf rows =
  Fmt.pf ppf "Fig. 7: speedup over native, 8 threads@.";
  Fmt.pf ppf "%-18s %10s %10s %10s %10s@." "benchmark" "DynamoRIO"
    "Static" "+Profile" "Janus";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %10.2f %10.2f %10.2f %10.2f@." r.f7_name r.f7_dbm
         r.f7_static r.f7_profile r.f7_janus)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: execution-time breakdown for 1 and 8 threads                *)
(* ------------------------------------------------------------------ *)

type fig8_row = {
  f8_name : string;
  f8_one : Janus.breakdown * int;    (* breakdown, total cycles *)
  f8_eight : Janus.breakdown * int;
}

let fig8_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let prepared =
    Janus.prepare ~cfg:(Janus.config ()) ~train_input:(Suite.train_input b)
      ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
  in
  let go threads =
    let r =
      Janus.run_parallel ~cfg:(Janus.config ~threads ())
        ~input:(Suite.ref_input b) ~store:ctx.store ?pool:ctx.pool prepared
    in
    (r.Janus.breakdown, r.Janus.cycles)
  in
  { f8_name = b.Suite.name; f8_one = go 1; f8_eight = go 8 }

let fig8 ?(ctx = default_ctx) () = par_map ctx (fig8_row ctx) nine

let pp_fig8 ppf rows =
  Fmt.pf ppf
    "Fig. 8: execution-time breakdown, normalised to 1-thread Janus@.";
  Fmt.pf ppf "%-18s %-8s %6s %6s %6s %6s %6s@." "benchmark" "threads"
    "seq" "par" "init" "xlate" "check";
  List.iter
    (fun r ->
       let base = float_of_int (snd r.f8_one) in
       let line label ((b : Janus.breakdown), _) =
         let pct v = 100.0 *. float_of_int v /. base in
         Fmt.pf ppf "%-18s %-8s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%@."
           r.f8_name label
           (pct b.Janus.seq_cycles) (pct b.Janus.par_cycles)
           (pct b.Janus.init_finish_cycles) (pct b.Janus.translate_cycles)
           (pct b.Janus.check_cycles)
       in
       line "1" r.f8_one;
       line "8" r.f8_eight)
    rows

(* ------------------------------------------------------------------ *)
(* Table I: array-bounds checks per loop                               *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  t1_name : string;
  t1_loops_with_checks : int;
  t1_avg_checks : float;
}

let table1_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let analysis = Pipeline.analyse ~store:ctx.store ?pool:ctx.pool img in
  (* count every loop whose parallel version requires a check, whether
     or not the profile ultimately selects it (as the paper does) *)
  let checks =
    List.filter_map
      (fun r -> Option.map Janus.Desc.check_pairs (Janus.Rulegen.check_desc r))
      analysis.Analysis.reports
  in
  let n = List.length checks in
  {
    t1_name = b.Suite.name;
    t1_loops_with_checks = n;
    t1_avg_checks =
      (if n = 0 then 0.0
       else float_of_int (List.fold_left ( + ) 0 checks) /. float_of_int n);
  }

let table1 ?(ctx = default_ctx) () =
  List.filter
    (fun r -> r.t1_loops_with_checks > 0)
    (par_map ctx (table1_row ctx) nine)

let pp_table1 ppf rows =
  Fmt.pf ppf "Table I: array bounds checks per loop that requires them@.";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %.1f  (loops with checks: %d)@." r.t1_name
         r.t1_avg_checks r.t1_loops_with_checks)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 9: thread scaling                                              *)
(* ------------------------------------------------------------------ *)

type fig9_row = { f9_name : string; f9_speedups : (int * float) list }

let fig9_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let native = Janus.run_native ~input:(Suite.ref_input b) img in
  let prepared =
    Janus.prepare ~cfg:(Janus.config ()) ~train_input:(Suite.train_input b)
      ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
  in
  let speedups =
    List.map
      (fun threads ->
         let r =
           Janus.run_parallel ~cfg:(Janus.config ~threads ())
             ~input:(Suite.ref_input b) ~store:ctx.store prepared
         in
         (threads, Janus.speedup ~native ~run:r))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  { f9_name = b.Suite.name; f9_speedups = speedups }

let fig9 ?(ctx = default_ctx) () = par_map ctx (fig9_row ctx) nine

let pp_fig9 ppf rows =
  Fmt.pf ppf "Fig. 9: speedup vs thread count@.";
  Fmt.pf ppf "%-18s %s@." "benchmark"
    (String.concat " " (List.map (Printf.sprintf "%6d") [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %s@." r.f9_name
         (String.concat " "
            (List.map (fun (_, s) -> Printf.sprintf "%6.2f" s) r.f9_speedups)))
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 10: rewrite-schedule size overhead                             *)
(* ------------------------------------------------------------------ *)

type fig10_row = { f10_name : string; f10_ratio : float }

let fig10_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let p =
    Janus.prepare ~cfg:(Janus.config ()) ~train_input:(Suite.train_input b)
      ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
  in
  {
    f10_name = b.Suite.name;
    f10_ratio =
      float_of_int (Janus.Schedule.size p.Janus.p_schedule)
      /. float_of_int (Janus_vx.Image.size img);
  }

let fig10 ?(ctx = default_ctx) () =
  let rows = par_map ctx (fig10_row ctx) nine in
  rows
  @ [ { f10_name = "geomean";
        f10_ratio = geomean (List.map (fun r -> max r.f10_ratio 1e-9) rows) } ]

let pp_fig10 ppf rows =
  Fmt.pf ppf "Fig. 10: rewrite-schedule size / executable size@.";
  List.iter
    (fun r -> Fmt.pf ppf "%-18s %5.1f%%@." r.f10_name (100.0 *. r.f10_ratio))
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 11: Janus vs compiler auto-parallelisation                     *)
(* ------------------------------------------------------------------ *)

type fig11_row = {
  f11_name : string;
  f11_gcc_autopar : float;   (* gcc -ftree-parallelize-loops, vs gcc O3 *)
  f11_janus_gcc : float;     (* Janus on the gcc binary, vs gcc O3 *)
  f11_icc_autopar : float;   (* icc -parallel, vs icc O3 *)
  f11_janus_icc : float;     (* Janus on the icc binary, vs icc O3 *)
}

let fig11_row ctx (b : Suite.benchmark) =
  let compare_for vendor =
    let base_opts = { Jcc.default_options with vendor } in
    let img = compile ctx ~options:base_opts b in
    let native = Janus.run_native ~input:(Suite.ref_input b) img in
    let autopar_img =
      compile ctx ~options:{ base_opts with autopar = 8 } b
    in
    let autopar = Janus.run_native ~input:(Suite.ref_input b) autopar_img in
    let janus =
      Janus.parallelise ~cfg:(Janus.config ())
        ~train_input:(Suite.train_input b) ~input:(Suite.ref_input b)
        ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
    in
    (Janus.speedup ~native ~run:autopar, Janus.speedup ~native ~run:janus)
  in
  let gcc_ap, gcc_janus = compare_for Jcc.Gcc in
  let icc_ap, icc_janus = compare_for Jcc.Icc in
  { f11_name = b.Suite.name; f11_gcc_autopar = gcc_ap;
    f11_janus_gcc = gcc_janus; f11_icc_autopar = icc_ap;
    f11_janus_icc = icc_janus }

let fig11 ?(ctx = default_ctx) () =
  let rows = par_map ctx (fig11_row ctx) nine in
  let g f = geomean (List.map f rows) in
  rows
  @ [ { f11_name = "geomean";
        f11_gcc_autopar = g (fun r -> r.f11_gcc_autopar);
        f11_janus_gcc = g (fun r -> r.f11_janus_gcc);
        f11_icc_autopar = g (fun r -> r.f11_icc_autopar);
        f11_janus_icc = g (fun r -> r.f11_janus_icc) } ]

let pp_fig11 ppf rows =
  Fmt.pf ppf "Fig. 11: Janus vs compiler parallelisation (normalised to same-compiler O3)@.";
  Fmt.pf ppf "%-18s %12s %12s %12s %12s@." "benchmark" "gcc-autopar"
    "janus(gcc)" "icc-autopar" "janus(icc)";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %12.2f %12.2f %12.2f %12.2f@." r.f11_name
         r.f11_gcc_autopar r.f11_janus_gcc r.f11_icc_autopar r.f11_janus_icc)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 12: impact of compiler optimisation level                      *)
(* ------------------------------------------------------------------ *)

type fig12_row = {
  f12_name : string;
  f12_o2 : float;
  f12_o3 : float;
  f12_avx : float;
}

let fig12_row ctx (b : Suite.benchmark) =
  let janus_on options =
    let img = compile ctx ~options b in
    let native = Janus.run_native ~input:(Suite.ref_input b) img in
    let r =
      Janus.parallelise ~cfg:(Janus.config ())
        ~train_input:(Suite.train_input b) ~input:(Suite.ref_input b)
        ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
    in
    Janus.speedup ~native ~run:r
  in
  {
    f12_name = b.Suite.name;
    f12_o2 = janus_on { Jcc.default_options with opt = 2 };
    f12_o3 = janus_on Jcc.default_options;
    f12_avx = janus_on { Jcc.default_options with avx = true };
  }

let fig12 ?(ctx = default_ctx) () =
  let rows = par_map ctx (fig12_row ctx) nine in
  let g f = geomean (List.map f rows) in
  rows
  @ [ { f12_name = "geomean"; f12_o2 = g (fun r -> r.f12_o2);
        f12_o3 = g (fun r -> r.f12_o3); f12_avx = g (fun r -> r.f12_avx) } ]

let pp_fig12 ppf rows =
  Fmt.pf ppf "Fig. 12: Janus speedup by compiler optimisation level (gcc)@.";
  Fmt.pf ppf "%-18s %8s %8s %8s@." "benchmark" "O2" "O3" "O3+avx";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %8.2f %8.2f %8.2f@." r.f12_name r.f12_o2 r.f12_o3
         r.f12_avx)
    rows

(* ------------------------------------------------------------------ *)
(* Extension: DOACROSS over the nine benchmarks                        *)
(* ------------------------------------------------------------------ *)

type ext_doacross_row = {
  ed_name : string;
  ed_doall : float;     (* full Janus, DOALL only (the paper's system) *)
  ed_doacross : float;  (* + in-order chunk hand-off for type-B loops *)
  ed_extra_loops : int; (* additional loops parallelised *)
}

let ext_doacross_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let native = Janus.run_native ~input:(Suite.ref_input b) img in
  let go cfg =
    Janus.parallelise ~cfg ~train_input:(Suite.train_input b)
      ~input:(Suite.ref_input b) ?evidence:(ctx.evidence img)
      ~store:ctx.store ?pool:ctx.pool img
  in
  let doall = go (Janus.config ()) in
  let doacross = go (Janus.config ~use_doacross:true ()) in
  {
    ed_name = b.Suite.name;
    ed_doall = Janus.speedup ~native ~run:doall;
    ed_doacross = Janus.speedup ~native ~run:doacross;
    ed_extra_loops =
      List.length doacross.Janus.selected_loops
      - List.length doall.Janus.selected_loops;
  }

let ext_doacross ?(ctx = default_ctx) () =
  let rows = par_map ctx (ext_doacross_row ctx) nine in
  rows
  @ [ { ed_name = "geomean";
        ed_doall = geomean (List.map (fun r -> r.ed_doall) rows);
        ed_doacross = geomean (List.map (fun r -> r.ed_doacross) rows);
        ed_extra_loops =
          List.fold_left (fun a r -> a + r.ed_extra_loops) 0 rows } ]

let pp_ext_doacross ppf rows =
  Fmt.pf ppf
    "Extension: DOACROSS execution of static-dependence loops (8 threads)@.";
  Fmt.pf ppf "%-18s %10s %10s %12s@." "benchmark" "DOALL" "+DOACROSS"
    "extra loops";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %10.2f %10.2f %12d@." r.ed_name r.ed_doall
         r.ed_doacross r.ed_extra_loops)
    rows

(* ------------------------------------------------------------------ *)
(* Extension: software prefetching via MEM_PREFETCH rules              *)
(* ------------------------------------------------------------------ *)

(* rules of kind [id] in a prepared schedule *)
let count_rules id (p : Janus.prepared) =
  List.length
    (List.filter
       (fun (r : Janus_schedule.Rule.t) -> r.Janus_schedule.Rule.id = id)
       p.Janus.p_schedule.Janus.Schedule.rules)

type ext_prefetch_row = {
  epf_name : string;
  epf_janus : float;     (* full Janus under the cache-miss model *)
  epf_prefetch : float;  (* + MEM_PREFETCH on strided accesses *)
  epf_rules : int;       (* prefetch rules emitted *)
}

let ext_prefetch_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  (* the cache-miss model must be on in every arm, baseline included *)
  let native =
    Janus.run_native ~model_cache:true ~input:(Suite.ref_input b) img
  in
  let go cfg =
    let p =
      Janus.prepare ~cfg ~train_input:(Suite.train_input b)
        ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
    in
    (p,
     Janus.run_parallel ~cfg ~input:(Suite.ref_input b) ~store:ctx.store
       ?pool:ctx.pool p)
  in
  let _, base = go (Janus.config ~model_cache:true ()) in
  let prepared_pf, pf = go (Janus.config ~model_cache:true ~prefetch:true ()) in
  let rules = count_rules Janus_schedule.Rule.MEM_PREFETCH prepared_pf in
  {
    epf_name = b.Suite.name;
    epf_janus = Janus.speedup ~native ~run:base;
    epf_prefetch = Janus.speedup ~native ~run:pf;
    epf_rules = rules;
  }

let ext_prefetch ?(ctx = default_ctx) () =
  let rows = par_map ctx (ext_prefetch_row ctx) nine in
  rows
  @ [ { epf_name = "geomean";
        epf_janus = geomean (List.map (fun r -> r.epf_janus) rows);
        epf_prefetch = geomean (List.map (fun r -> r.epf_prefetch) rows);
        epf_rules = List.fold_left (fun a r -> a + r.epf_rules) 0 rows } ]

let pp_ext_prefetch ppf rows =
  Fmt.pf ppf
    "Extension: software prefetching (cache-miss model, 8 threads)@.";
  Fmt.pf ppf "%-18s %10s %12s %9s@." "benchmark" "Janus" "+prefetch"
    "pf rules";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %10.2f %12.2f %9d@." r.epf_name r.epf_janus
         r.epf_prefetch r.epf_rules)
    rows

(* ------------------------------------------------------------------ *)
(* Extension: the online adaptive governor on misbehaving inputs       *)
(* ------------------------------------------------------------------ *)

type ext_adapt_row = {
  ea_name : string;
  ea_static : float;
  ea_adapt : float;
  ea_demotions : int;
  ea_probes : int;
  ea_fallbacks : int;
}

(* the adversarial pair (whose reference input invalidates the training
   run's aliasing behaviour) plus two well-behaved controls that must
   come out within noise of the static system *)
let ext_adapt_benchmarks =
  Suite.adversarial @ List.filteri (fun i _ -> i < 2) nine

let ext_adapt_row ctx (b : Suite.benchmark) =
  let module Adapt = Janus_adapt.Adapt in
  let img = compile ctx b in
  let native = Janus.run_native ~input:(Suite.ref_input b) img in
  let go cfg =
    Janus.parallelise ~cfg ~train_input:(Suite.train_input b)
      ~input:(Suite.ref_input b) ?evidence:(ctx.evidence img)
      ~store:ctx.store ?pool:ctx.pool img
  in
  let static = go (Janus.config ()) in
  let adaptive = go (Janus.config ~adapt:true ()) in
  if not (String.equal native.Janus.output adaptive.Janus.output) then
    failwith (b.Suite.name ^ ": adaptive output diverges from native");
  let demotions, probes, fallbacks =
    match adaptive.Janus.governor with
    | None -> (0, 0, 0)
    | Some g ->
      List.fold_left
        (fun (d, p, f) (s : Adapt.loop_stats) ->
           (d + s.Adapt.demotions, p + s.Adapt.probes, f + s.Adapt.fallbacks))
        (0, 0, 0) (Adapt.snapshot g)
  in
  { ea_name = b.Suite.name;
    ea_static = Janus.speedup ~native ~run:static;
    ea_adapt = Janus.speedup ~native ~run:adaptive;
    ea_demotions = demotions;
    ea_probes = probes;
    ea_fallbacks = fallbacks }

let ext_adapt ?(ctx = default_ctx) () =
  par_map ctx (ext_adapt_row ctx) ext_adapt_benchmarks

let pp_ext_adapt ppf rows =
  Fmt.pf ppf
    "Extension: online adaptive governor vs static schedules (8 threads)@.";
  Fmt.pf ppf "%-18s %8s %9s %7s %6s %9s@." "benchmark" "static" "adaptive"
    "demote" "probe" "fallback";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %8.2f %9.2f %7d %6d %9d@." r.ea_name r.ea_static
         r.ea_adapt r.ea_demotions r.ea_probes r.ea_fallbacks)
    rows

(* ------------------------------------------------------------------ *)
(* Extension: SCC-driven loop fission on Static-Dependence loops       *)
(* ------------------------------------------------------------------ *)

type ext_fission_row = {
  ef_name : string;
  ef_base : float;
  ef_fission : float;
  ef_rules : int;
  ef_split : int;
  ef_verified : int;
  ef_demoted : int;
}

(* the mixed chain-plus-stream benchmark the extension targets, plus
   two well-behaved controls whose schedules must be untouched by the
   flag (their Static-Dependence loops either do not split or never
   dominate) *)
let ext_fission_benchmarks =
  Suite.adv_fission :: List.filteri (fun i _ -> i < 2) nine

let ext_fission_row ctx (b : Suite.benchmark) =
  let img = compile ctx b in
  let native = Janus.run_native ~input:(Suite.ref_input b) img in
  let go cfg =
    let p =
      Janus.prepare ~cfg ~train_input:(Suite.train_input b)
        ?evidence:(ctx.evidence img) ~store:ctx.store ?pool:ctx.pool img
    in
    (p,
     Janus.run_parallel ~cfg ~input:(Suite.ref_input b) ~store:ctx.store
       ?pool:ctx.pool p)
  in
  let _, base = go (Janus.config ~threads:4 ()) in
  let pf, fission = go (Janus.config ~threads:4 ~fission:true ()) in
  if not (String.equal native.Janus.output fission.Janus.output) then
    failwith (b.Suite.name ^ ": fission output diverges from native");
  let rules = count_rules Janus_schedule.Rule.LOOP_FISSION pf in
  let counter name =
    match fission.Janus.obs with
    | None -> 0
    | Some obs -> Janus_obs.Obs.counter obs name
  in
  {
    ef_name = b.Suite.name;
    ef_base = Janus.speedup ~native ~run:base;
    ef_fission = Janus.speedup ~native ~run:fission;
    ef_rules = rules;
    ef_split = counter "fission.split";
    ef_verified = counter "fission.verified";
    ef_demoted = counter "fission.demoted";
  }

let ext_fission ?(ctx = default_ctx) () =
  par_map ctx (ext_fission_row ctx) ext_fission_benchmarks

let pp_ext_fission ppf rows =
  Fmt.pf ppf
    "Extension: SCC-driven loop fission of Static-Dependence loops \
     (4 threads)@.";
  Fmt.pf ppf "%-18s %8s %9s %7s %14s %16s %15s@." "benchmark" "Janus"
    "+fission" "rules" "fission.split" "fission.verified" "fission.demoted";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %8.2f %9.2f %7d %14d %16d %15d@." r.ef_name
         r.ef_base r.ef_fission r.ef_rules r.ef_split r.ef_verified
         r.ef_demoted)
    rows

(* ------------------------------------------------------------------ *)
(* The speculation footprint the paper reports for bwaves (§III-B)     *)
(* ------------------------------------------------------------------ *)

type excall_stats = {
  ex_name : string;
  ex_avg_insns : float;
  ex_avg_reads : float;
  ex_avg_writes : float;
}

let excall_footprint ?(ctx = default_ctx) () =
  let b = Suite.find_exn "410.bwaves" in
  let img = compile ctx b in
  let analysis = Pipeline.analyse ~store:ctx.store ?pool:ctx.pool img in
  let cov =
    match
      Pipeline.profile ~store:ctx.store ~cfg:profiler_default_cfg
        ~train_input:(Suite.train_input b) img analysis
    with
    | Some cov, _ -> cov
    | None, _ -> assert false (* the default config profiles coverage *)
  in
  Hashtbl.fold
    (fun _ (c : Profiler.loop_cov) acc ->
       if c.Profiler.ex_calls = 0 then acc
       else
         { ex_name = b.Suite.name;
           ex_avg_insns =
             float_of_int c.Profiler.ex_insns /. float_of_int c.Profiler.ex_calls;
           ex_avg_reads =
             float_of_int c.Profiler.ex_reads /. float_of_int c.Profiler.ex_calls;
           ex_avg_writes =
             float_of_int c.Profiler.ex_writes /. float_of_int c.Profiler.ex_calls }
         :: acc)
    cov.Profiler.loops []

let pp_excall ppf rows =
  Fmt.pf ppf "Shared-library call footprint (paper: 49 insns, 11 reads, 0 writes)@.";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-18s %.0f insns, %.0f heap reads, %.0f writes per call@."
         r.ex_name r.ex_avg_insns r.ex_avg_reads r.ex_avg_writes)
    rows
