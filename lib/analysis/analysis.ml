(** Top-level static binary analysis: CFG recovery, loop analysis for
    every function, and classification summaries (the static side of
    Fig. 1(a)). *)

type t = {
  cfg : Cfg.t;
  reports : Loopanal.report list;
  by_lid : (int, Loopanal.report) Hashtbl.t;
}

(* name the offenders: a Static-Dependence demotion keeps its original
   reason and appends the addresses of the instructions on carried
   dependence cycles, as found by the statement-level dependence graph.
   [carried_members] is sorted and duplicate-free, so the enriched
   reason is stable across runs of the same image. *)
let enrich_static_dep (r : Loopanal.report) =
  match r.Loopanal.cls with
  | Loopanal.Static_dep reason -> begin
      match Depgraph.build r with
      | None -> r
      | Some g ->
        (match Depgraph.carried_members g with
         | [] -> r
         | addrs ->
           let names =
             String.concat "," (List.map (Printf.sprintf "0x%x") addrs)
           in
           {
             r with
             Loopanal.cls =
               Loopanal.Static_dep
                 (Printf.sprintf "%s; carried scc @ %s" reason names);
           })
    end
  | _ -> r

(* Function-level sharding (after Meng et al., "Parallel Binary Code
   Analysis"): dominator trees and the per-function dataflow +
   classification passes are embarrassingly parallel across functions,
   so a pool fans them out over domains. Determinism is preserved by
   construction:
   - loop ids are allocated by a {e sequential} pass over the functions
     in ascending entry order, exactly as the unsharded analyser did;
   - symbolic-atom ids restart per {e function} (atom identity is only
     ever compared within one function's analysis), so every function
     sees the same atom stream whichever domain runs it;
   - [Pool.map] returns results in submission order, so the merged
     report list is byte-identical across [--jobs].
   No global state is touched, so independent function analyses can run
   on separate domains. *)
let analyse_image ?pool image =
  let shard : 'a 'b. ('a -> 'b) -> 'a list -> 'b list =
    fun f xs ->
      match pool with
      | Some p when Janus_pool.Pool.jobs p > 1 -> Janus_pool.Pool.map p f xs
      | _ -> List.map f xs
  in
  let cfg = Cfg.recover ~code:(Janus_vx.Code.of_image image) image in
  let funcs = Cfg.all_funcs cfg in
  (* phase 1 (parallel): dominator trees, pure per function *)
  let doms = shard Dom.compute funcs in
  (* phase 2 (sequential): the loop forest, so lids follow ascending
     function order no matter how phase 3 is scheduled *)
  let lid_counter = ref 0 in
  let pre =
    List.map2
      (fun f dom -> (f, dom, Looptree.compute ~counter:lid_counter f dom))
      funcs doms
  in
  (* phase 3 (parallel): per-function dataflow and per-loop
     classification — the expensive side of the analysis *)
  let reports =
    List.concat
      (shard
         (fun (f, dom, ltree) ->
            Sympoly.reset_atoms ();
            let fa = Funcanal.compute f dom in
            List.map
              (fun l ->
                 enrich_static_dep (Loopanal.analyse cfg ~fa f ltree l))
              ltree.Looptree.loops)
         pre)
  in
  let by_lid = Hashtbl.create 16 in
  List.iter
    (fun (r : Loopanal.report) ->
       Hashtbl.replace by_lid r.Loopanal.loop.Looptree.lid r)
    reports;
  { cfg; reports; by_lid }

let report t lid = Hashtbl.find_opt t.by_lid lid

(** How a loop could be made parallel, from static analysis alone. *)
type eligibility =
  | Eligible_static          (* type A: parallel as-is *)
  | Eligible_dynamic of { needs_check : bool; needs_stm : bool }
  | Eligible_doacross of int (* type B with a recognised iterator:
                                parallel via in-order chunk hand-off;
                                the int is the carried percentage *)
  | Not_eligible of string

let eligibility (r : Loopanal.report) =
  match r.Loopanal.cls with
  | Loopanal.Static_doall -> Eligible_static
  | Loopanal.Static_dep reason -> begin
      match r.Loopanal.doacross_frac, r.Loopanal.iv with
      | Some pct, Some _ when pct <= 90 -> Eligible_doacross pct
      | _ -> Not_eligible ("static dependence: " ^ reason)
    end
  | Loopanal.Incompatible reason -> Not_eligible reason
  | Loopanal.Outer -> Not_eligible "outer loop (conservative)"
  | Loopanal.Ambiguous _ ->
    let has_calls =
      r.Loopanal.excall_sites <> [] || r.Loopanal.local_call_sites <> []
    in
    let unknown_stores =
      (* stores whose footprint cannot be expressed (opaque addresses
         or missing base expressions) cannot be guarded by checks *)
      List.exists
        (fun (g : Loopanal.access_sum) ->
           g.Loopanal.g_write
           && (g.Loopanal.g_opaque
               || (g.Loopanal.g_base_rexpr = None
                   && not (Int64.equal g.Loopanal.g_k 0L))))
        r.Loopanal.accesses
    in
    if unknown_stores then Not_eligible "unverifiable stores"
    else
      Eligible_dynamic
        { needs_check = r.Loopanal.check_ranges <> []; needs_stm = has_calls }

let pp_summary ppf t =
  List.iter
    (fun (r : Loopanal.report) ->
       Fmt.pf ppf "loop %d @ 0x%x (fn 0x%x): %s%s@."
         r.Loopanal.loop.Looptree.lid r.Loopanal.loop.Looptree.header
         r.Loopanal.func.Cfg.fentry
         (Loopanal.classification_name r.Loopanal.cls)
         (match r.Loopanal.cls with
          | Loopanal.Static_dep m | Loopanal.Ambiguous m
          | Loopanal.Incompatible m -> " (" ^ m ^ ")"
          | _ -> ""))
    t.reports
