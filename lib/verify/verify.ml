(** Schedule linter: prove a rewrite schedule safe against its binary. *)

open Janus_vx
open Janus_analysis
module Schedule = Janus_schedule.Schedule
module Rule = Janus_schedule.Rule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr

(* keys persisted verdicts; bump on any change to what [lint] reports or
   [check_and_demote] demotes (see verify.mli) *)
let version = "1"

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  code : string;
  addr : int option;
  lid : int option;
  message : string;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_finding ppf f =
  Format.fprintf ppf "%s: [%s]" (severity_name f.severity) f.code;
  (match f.addr with
   | Some a -> Format.fprintf ppf " 0x%x" a
   | None -> ());
  (match f.lid with
   | Some l -> Format.fprintf ppf " loop %d" l
   | None -> ());
  Format.fprintf ppf ": %s" f.message

let has_errors = List.exists (fun f -> f.severity = Error)

let failed_loops findings =
  List.filter_map
    (fun f ->
       match f.severity, f.lid with Error, Some l -> Some l | _ -> None)
    findings
  |> List.sort_uniq compare

(* which payload field carries the loop id is part of each rule's
   encoding; LOOP_UPDATE_BOUND spends both fields on the compare *)
let rule_lid (r : Rule.t) =
  match r.Rule.id with
  | Rule.LOOP_INIT | Rule.LOOP_FINISH | Rule.MEM_SPILL_REG
  | Rule.MEM_RECOVER_REG | Rule.MEM_PRIVATISE | Rule.MEM_MAIN_STACK
  | Rule.MEM_BOUNDS_CHECK | Rule.MEM_PREFETCH | Rule.THREAD_YIELD
  | Rule.LOOP_FISSION ->
    Some (Int64.to_int r.Rule.aux)
  | Rule.THREAD_SCHEDULE | Rule.TX_START | Rule.TX_FINISH
  | Rule.PROF_LOOP_START | Rule.PROF_LOOP_FINISH | Rule.PROF_LOOP_ITER
  | Rule.PROF_EXCALL_START | Rule.PROF_EXCALL_FINISH ->
    Some (Int64.to_int r.Rule.data)
  | Rule.PROF_MEM_ACCESS -> Some (Int64.to_int r.Rule.data)
  | Rule.LOOP_UPDATE_BOUND -> None

(* a privatised-scalar address the linter can place statically *)
let static_addr = function
  | Rexpr.Const a -> Some (`Abs (Int64.to_int a))
  | Rexpr.Add (Rexpr.Reg Reg.RSP, Rexpr.Const off) ->
    Some (`Rsp (Int64.to_int off))
  | _ -> None

let dir_ok cond step =
  match cond, Int64.compare step 0L with
  | (Cond.Lt | Cond.Le | Cond.Ne | Cond.Ult | Cond.Ule), 1 -> true
  | (Cond.Gt | Cond.Ge | Cond.Ne | Cond.Ugt | Cond.Uge), -1 -> true
  | _ -> false

let lint ?pool image (s : Schedule.t) : finding list =
  let findings = ref [] in
  let add severity code ?addr ?lid message =
    findings := { severity; code; addr; lid; message } :: !findings
  in
  let decode = Image.decode_text image in
  (* CFG recovery and per-function analyses, on demand. The caches made
     by [mk_caches] memoise per function; the descriptor deep checks
     below run one cache pair per pool task (a shared cache would race
     across domains), the fission checks share one on the lint domain. *)
  let cfgt = lazy (Cfg.recover image) in
  let mk_caches () =
    let live_cache : (int, Liveness.t) Hashtbl.t = Hashtbl.create 4 in
    let loops_cache : (int, Looptree.t) Hashtbl.t = Hashtbl.create 4 in
    let liveness_of (f : Cfg.func) =
      match Hashtbl.find_opt live_cache f.Cfg.fentry with
      | Some l -> l
      | None ->
        let l = Liveness.compute f in
        Hashtbl.replace live_cache f.Cfg.fentry l;
        l
    in
    let looptree_of (f : Cfg.func) =
      match Hashtbl.find_opt loops_cache f.Cfg.fentry with
      | Some t -> t
      | None ->
        let t = Looptree.compute f (Dom.compute f) in
        Hashtbl.replace loops_cache f.Cfg.fentry t;
        t
    in
    (liveness_of, looptree_of)
  in
  let func_containing baddr =
    List.find_opt
      (fun (f : Cfg.func) -> Hashtbl.mem f.Cfg.block_at baddr)
      (Cfg.all_funcs (Lazy.force cfgt))
  in
  (* ---- rule stream shape ---- *)
  let rec sorted = function
    | (a : Rule.t) :: (b : Rule.t) :: tl ->
      a.Rule.addr <= b.Rule.addr && sorted (b :: tl)
    | _ -> true
  in
  if not (sorted s.Schedule.rules) then
    add Warning "unsorted-rules"
      "rules are not sorted by trigger address; the DBM's index assumes \
       they are";
  List.iter
    (fun (r : Rule.t) ->
       if not (Hashtbl.mem decode r.Rule.addr) then
         add Error "dangling-address" ~addr:r.Rule.addr ?lid:(rule_lid r)
           (Fmt.str "%s triggers at 0x%x, which is not an instruction \
                     boundary of the binary"
              (Rule.id_name r.Rule.id) r.Rule.addr);
       match s.Schedule.channel, Rule.is_profiling r.Rule.id with
       | Schedule.Parallelisation, true ->
         add Warning "channel-mismatch" ~addr:r.Rule.addr
           (Fmt.str "profiling rule %s in a parallelisation schedule"
              (Rule.id_name r.Rule.id))
       | Schedule.Profiling, false ->
         add Warning "channel-mismatch" ~addr:r.Rule.addr
           (Fmt.str "parallelisation rule %s in a profiling schedule"
              (Rule.id_name r.Rule.id))
       | _ -> ())
    s.Schedule.rules;
  (* ---- descriptors, first pass: pull every loop/check descriptor ---- *)
  let loop_descs : (int, Desc.loop_desc) Hashtbl.t = Hashtbl.create 8 in
  let check_descs : (int, Desc.check_desc) Hashtbl.t = Hashtbl.create 8 in
  let fission_descs : (int, Desc.fission_desc) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (r : Rule.t) ->
       let lid = Int64.to_int r.Rule.aux in
       match r.Rule.id with
       | Rule.LOOP_INIT | Rule.LOOP_FINISH -> begin
           match Schedule.loop_desc s r.Rule.data with
           | d ->
             if r.Rule.id = Rule.LOOP_INIT then Hashtbl.replace loop_descs lid d;
             if d.Desc.loop_id <> lid then
               add Warning "descriptor-lid-mismatch" ~addr:r.Rule.addr ~lid
                 (Fmt.str "rule names loop %d but its descriptor is for \
                           loop %d" lid d.Desc.loop_id)
           | exception _ ->
             add Error "descriptor-out-of-bounds" ~addr:r.Rule.addr ~lid
               (Fmt.str "%s descriptor offset %Ld does not decode inside \
                         the %d-byte data section"
                  (Rule.id_name r.Rule.id) r.Rule.data
                  (Bytes.length s.Schedule.data))
         end
       | Rule.MEM_BOUNDS_CHECK -> begin
           match Schedule.check_desc s r.Rule.data with
           | d ->
             Hashtbl.replace check_descs lid d;
             if d.Desc.check_loop_id <> lid then
               add Warning "descriptor-lid-mismatch" ~addr:r.Rule.addr ~lid
                 (Fmt.str "rule names loop %d but its check descriptor is \
                           for loop %d" lid d.Desc.check_loop_id);
             if d.Desc.ranges = [] then
               add Warning "empty-check" ~addr:r.Rule.addr ~lid
                 "bounds check with no ranges always passes"
           | exception _ ->
             add Error "descriptor-out-of-bounds" ~addr:r.Rule.addr ~lid
               (Fmt.str "check descriptor offset %Ld does not decode inside \
                         the %d-byte data section"
                  r.Rule.data (Bytes.length s.Schedule.data))
         end
       | Rule.LOOP_FISSION -> begin
           match Schedule.fission_desc s r.Rule.data with
           | fd ->
             Hashtbl.replace fission_descs lid fd;
             (* the embedded loop descriptor gets every ordinary deep
                check (addresses, direction, privatisation, live-outs) *)
             Hashtbl.replace loop_descs lid fd.Desc.fd_loop;
             if fd.Desc.fd_loop.Desc.loop_id <> lid then
               add Warning "descriptor-lid-mismatch" ~addr:r.Rule.addr ~lid
                 (Fmt.str "rule names loop %d but its fission descriptor \
                           is for loop %d" lid fd.Desc.fd_loop.Desc.loop_id)
           | exception _ ->
             add Error "descriptor-out-of-bounds" ~addr:r.Rule.addr ~lid
               (Fmt.str "fission descriptor offset %Ld does not decode \
                         inside the %d-byte data section"
                  r.Rule.data (Bytes.length s.Schedule.data))
         end
       | _ -> ())
    s.Schedule.rules;
  (* ---- pairing ---- *)
  let count pred =
    let t = Hashtbl.create 8 in
    List.iter
      (fun (r : Rule.t) ->
         if pred r.Rule.id then
           match rule_lid r with
           | Some lid ->
             Hashtbl.replace t lid
               (1 + Option.value ~default:0 (Hashtbl.find_opt t lid))
           | None -> ())
      s.Schedule.rules;
    t
  in
  (* a fissioned loop is initiated by LOOP_FISSION instead of
     LOOP_INIT; it still needs the same finish/spill pairing *)
  let inits = count (fun id -> id = Rule.LOOP_INIT || id = Rule.LOOP_FISSION)
  and finishes = count (( = ) Rule.LOOP_FINISH)
  and spills = count (( = ) Rule.MEM_SPILL_REG)
  and recovers = count (( = ) Rule.MEM_RECOVER_REG) in
  Hashtbl.iter
    (fun lid n ->
       if n > 1 then
         add Warning "duplicate-init" ~lid
           (Fmt.str "%d LOOP_INIT rules for one loop" n);
       if not (Hashtbl.mem finishes lid) then
         add Error "unpaired-loop-init" ~lid
           "LOOP_INIT with no LOOP_FINISH at any exit: workers would never \
            join back into the main context";
       if Hashtbl.mem spills lid && not (Hashtbl.mem recovers lid) then
         add Error "unpaired-spill" ~lid
           "MEM_SPILL_REG with no MEM_RECOVER_REG: spilled registers are \
            never restored"
       else if Hashtbl.mem recovers lid && not (Hashtbl.mem spills lid) then
         add Error "unpaired-spill" ~lid
           "MEM_RECOVER_REG with no MEM_SPILL_REG: restores registers \
            nothing saved")
    inits;
  Hashtbl.iter
    (fun lid _ ->
       if not (Hashtbl.mem inits lid) then
         add Error "unpaired-loop-finish" ~lid
           "LOOP_FINISH for a loop no LOOP_INIT ever starts")
    finishes;
  (* transactions: walk in address order, one depth counter per loop *)
  let tx_depth = Hashtbl.create 8 in
  List.iter
    (fun (r : Rule.t) ->
       match r.Rule.id with
       | Rule.TX_START ->
         let lid = Int64.to_int r.Rule.data in
         let d = 1 + Option.value ~default:0 (Hashtbl.find_opt tx_depth lid) in
         Hashtbl.replace tx_depth lid d;
         if d > 1 then
           add Warning "tx-nested" ~addr:r.Rule.addr ~lid
             (Fmt.str "TX_START nests to depth %d" d)
       | Rule.TX_FINISH ->
         let lid = Int64.to_int r.Rule.data in
         let d = Option.value ~default:0 (Hashtbl.find_opt tx_depth lid) - 1 in
         Hashtbl.replace tx_depth lid d;
         if d < 0 then
           add Error "unpaired-tx" ~addr:r.Rule.addr ~lid
             "TX_FINISH before any TX_START"
       | _ -> ())
    s.Schedule.rules;
  Hashtbl.iter
    (fun lid d ->
       if d > 0 then
         add Error "unpaired-tx" ~lid
           (Fmt.str "%d TX_START rule(s) never finished: speculative state \
                     would leak past the loop" d))
    tx_depth;
  (* ---- per-rule payload checks ---- *)
  List.iter
    (fun (r : Rule.t) ->
       match r.Rule.id with
       | Rule.LOOP_UPDATE_BOUND ->
         let idx = Int64.to_int r.Rule.data in
         if idx <> 0 && idx <> 1 then
           add Error "bad-bound-operand" ~addr:r.Rule.addr
             (Fmt.str "bound operand index %d (a compare has operands 0 \
                       and 1)" idx);
         (match Hashtbl.find_opt decode r.Rule.addr with
          | Some (Insn.Cmp _, _) -> ()
          | Some (i, _) ->
            add Error "bound-not-compare" ~addr:r.Rule.addr
              (Fmt.str "LOOP_UPDATE_BOUND must rewrite a compare, found: %s"
                 (Insn.to_string i))
          | None -> () (* already a dangling-address error *))
       | Rule.MEM_SPILL_REG | Rule.MEM_RECOVER_REG ->
         let mask = Int64.to_int r.Rule.data in
         if mask land lnot ((1 lsl Reg.gp_count) - 1) <> 0 then
           add Warning "bad-spill-mask" ~addr:r.Rule.addr
             ?lid:(rule_lid r)
             (Fmt.str "spill mask 0x%x names registers beyond the %d the \
                       machine has" mask Reg.gp_count)
       | Rule.MEM_PRIVATISE ->
         let lid = Int64.to_int r.Rule.aux in
         let slot = Int64.to_int r.Rule.data in
         if slot <= 0 then
           add Error "overlapping-privatisation" ~addr:r.Rule.addr ~lid
             (Fmt.str "TLS slot %d: slot 0 is reserved for the per-thread \
                       bound" slot)
         else begin
           match Hashtbl.find_opt loop_descs lid with
           | Some d when not (List.exists (fun (_, sl) -> sl = slot)
                                d.Desc.privatised) ->
             add Error "overlapping-privatisation" ~addr:r.Rule.addr ~lid
               (Fmt.str "TLS slot %d is not declared by the loop's \
                         descriptor" slot)
           | _ -> ()
         end
       | Rule.MEM_PREFETCH ->
         let dist = Int64.to_int r.Rule.data in
         if dist = 0 || abs dist > 4096 then
           add Warning "prefetch-distance" ~addr:r.Rule.addr
             ?lid:(rule_lid r)
             (Fmt.str "prefetch distance %d bytes is outside the useful \
                       range" dist)
       | _ -> ())
    s.Schedule.rules;
  (* ---- descriptor deep checks ---- *)
  (* Sharded per containing function over [pool]: liveness and loop
     forests are per-function artifacts, so descriptors sharing a
     function are checked as one task over one task-local cache pair.
     Descriptors are sorted by lid, groups ordered by their first lid,
     and per-task findings concatenated in that order — the report is
     byte-identical with or without a pool, at any [--jobs]. The CFG is
     recovered up front (grouping needs it), so tasks never race the
     lazy cell; [decode], [s] and [check_descs] are read-only here and
     shared Hashtbl reads are safe across domains. *)
  let deep_check ~liveness_of ~looptree_of
      (lid, (d : Desc.loop_desc), (fopt : Cfg.func option)) =
    let out = ref [] in
    let add severity code ?addr ?lid message =
      out := { severity; code; addr; lid; message } :: !out
    in
    (let check_addr what a =
         if not (Hashtbl.mem decode a) then
           add Error "descriptor-address" ~addr:a ~lid
             (Fmt.str "descriptor %s 0x%x is not an instruction boundary"
                what a)
       in
       check_addr "header" d.Desc.header_addr;
       check_addr "preheader" d.Desc.preheader_addr;
       check_addr "latch" d.Desc.latch_addr;
       List.iter (check_addr "exit target") d.Desc.exit_addrs;
       if d.Desc.exit_addrs = [] then
         add Error "descriptor-address" ~lid
           "loop descriptor declares no exits";
       (match
          List.find_opt
            (fun (r : Rule.t) ->
               (r.Rule.id = Rule.LOOP_INIT || r.Rule.id = Rule.LOOP_FISSION)
               && Int64.to_int r.Rule.aux = lid)
            s.Schedule.rules
        with
        | Some r when r.Rule.addr <> d.Desc.header_addr ->
          add Warning "init-not-at-header" ~addr:r.Rule.addr ~lid
            (Fmt.str "%s triggers at 0x%x but the descriptor's \
                      header is 0x%x"
               (Rule.id_name r.Rule.id) r.Rule.addr d.Desc.header_addr)
        | _ -> ());
       if Int64.equal d.Desc.iv_step 0L then
         add Error "zero-step" ~lid
           "iterator step 0: chunk boundaries cannot advance"
       else if not (dir_ok d.Desc.iv_cond d.Desc.iv_step) then
         add Error "direction-mismatch" ~lid
           (Fmt.str "iterator steps by %Ld but continues while (iv %s \
                     bound): the loop runs the wrong way under chunking"
              d.Desc.iv_step (Cond.name d.Desc.iv_cond));
       (* privatised scalars: slots distinct and regions disjoint *)
       let slots = List.map snd d.Desc.privatised in
       List.iter
         (fun sl ->
            if sl <= 0 then
              add Error "overlapping-privatisation" ~lid
                (Fmt.str "descriptor assigns reserved TLS slot %d" sl))
         slots;
       if List.length (List.sort_uniq compare slots) <> List.length slots
       then
         add Error "overlapping-privatisation" ~lid
           "two privatised scalars share one TLS slot: threads would alias \
            values that must stay private";
       let placed =
         List.filter_map
           (fun (e, sl) ->
              Option.map (fun a -> (a, sl)) (static_addr e))
           d.Desc.privatised
       in
       let rec pairs = function
         | [] -> ()
         | (a, sa) :: tl ->
           List.iter
             (fun (b, sb) ->
                match a, b with
                | `Abs x, `Abs y | `Rsp x, `Rsp y ->
                  if abs (x - y) < 8 && sa <> sb then
                    add Error "overlapping-privatisation" ~lid
                      (Fmt.str "privatised scalars in TLS slots %d and %d \
                                overlap in memory" sa sb)
                | _ -> ())
             tl;
           pairs tl
       in
       pairs placed;
       (* privatised scalars inside a checked array footprint: the check
          would race the privatised copy *)
       (match Hashtbl.find_opt check_descs lid with
        | Some cd ->
          List.iter
            (fun (rg : Desc.array_range) ->
               match rg.Desc.base, rg.Desc.extent with
               | Rexpr.Const b, Rexpr.Const e ->
                 let b = Int64.to_int b and e = Int64.to_int e in
                 let lo = min b (b + e)
                 and hi = max b (b + e) + rg.Desc.width in
                 List.iter
                   (fun (a, sl) ->
                      match a with
                      | `Abs x when x + 8 > lo && x < hi ->
                        add Error "privatise-checked-overlap" ~lid
                          (Fmt.str "privatised scalar (TLS slot %d) at \
                                    0x%x lies inside a bounds-checked \
                                    array footprint [0x%x,0x%x)"
                             sl x lo hi)
                      | _ -> ())
                   placed
               | _ -> ())
            cd.Desc.ranges
        | None -> ());
       (* every register the loop writes must either be declared live-out
          (the runtime copies it back) or be provably dead at every exit *)
       match fopt with
       | None ->
         add Warning "descriptor-address" ~lid
           (Fmt.str "header 0x%x is not inside any recovered function"
              d.Desc.header_addr)
       | Some f ->
         let lt = looptree_of f in
         (match
            List.find_opt
              (fun (l : Looptree.loop) ->
                 l.Looptree.header = d.Desc.header_addr)
              lt.Looptree.loops
          with
          | None ->
            add Warning "descriptor-address" ~lid
              (Fmt.str "no natural loop has its header at 0x%x"
                 d.Desc.header_addr)
          | Some l ->
            let live = liveness_of f in
            let modified_g = Hashtbl.create 8
            and modified_f = Hashtbl.create 8 in
            List.iter
              (fun baddr ->
                 match Hashtbl.find_opt f.Cfg.block_at baddr with
                 | Some b ->
                   Array.iter
                     (fun (ii : Cfg.insn_info) ->
                        List.iter
                          (fun r -> Hashtbl.replace modified_g r ())
                          (Insn.gp_defs ii.Cfg.insn);
                        List.iter
                          (fun r -> Hashtbl.replace modified_f r ())
                          (Insn.fp_defs ii.Cfg.insn))
                     b.Cfg.insns
                 | None -> ())
              l.Looptree.body;
            List.iter
              (fun exit_addr ->
                 if Hashtbl.mem f.Cfg.block_at exit_addr then begin
                   List.iter
                     (fun r ->
                        if
                          Hashtbl.mem modified_g r
                          && (not (List.mem r d.Desc.live_out_gps))
                          && r <> Reg.RSP && r <> Reg.TLS && r <> Reg.SHARED
                          && Liveness.gp_live_before live ~addr:exit_addr r
                        then
                          add Error "live-register-privatised" ~addr:exit_addr
                            ~lid
                            (Fmt.str
                               "%s is written by the loop and still live at \
                                exit 0x%x, but the schedule does not carry \
                                it out of the workers"
                               (Reg.gp_name r) exit_addr))
                     Reg.all_gp;
                   List.iter
                     (fun r ->
                        if
                          Hashtbl.mem modified_f r
                          && (not (List.mem r d.Desc.live_out_fps))
                          && Liveness.fp_live_before live ~addr:exit_addr r
                        then
                          add Error "live-register-privatised" ~addr:exit_addr
                            ~lid
                            (Fmt.str
                               "%s is written by the loop and still live at \
                                exit 0x%x, but the schedule does not carry \
                                it out of the workers"
                               (Reg.fp_name r) exit_addr))
                     Reg.all_fp
                 end)
              d.Desc.exit_addrs));
    List.rev !out
  in
  let deep_items =
    Hashtbl.fold (fun lid d acc -> (lid, d) :: acc) loop_descs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (lid, (d : Desc.loop_desc)) ->
        (lid, d, func_containing d.Desc.header_addr))
  in
  let deep_groups =
    (* by containing function, groups in order of first (smallest) lid;
       header-less descriptors form their own group *)
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun ((_, _, fopt) as item) ->
         let key =
           match fopt with Some (f : Cfg.func) -> f.Cfg.fentry | None -> -1
         in
         match Hashtbl.find_opt tbl key with
         | Some r -> r := item :: !r
         | None ->
           Hashtbl.replace tbl key (ref [ item ]);
           order := key :: !order)
      deep_items;
    List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order
  in
  let check_group group =
    let liveness_of, looptree_of = mk_caches () in
    List.concat_map (deep_check ~liveness_of ~looptree_of) group
  in
  let deep_findings =
    match pool with
    | Some p when Janus_pool.Pool.jobs p > 1 && List.length deep_groups > 1 ->
      List.concat (Janus_pool.Pool.map p check_group deep_groups)
    | _ -> List.concat_map check_group deep_groups
  in
  List.iter (fun f -> findings := f :: !findings) deep_findings;
  (* ---- fission schedules ---- *)
  (* forced only when a LOOP_FISSION rule exists, so fission-free
     schedules never pay for a re-analysis of the image *)
  let analysis =
    lazy (try Some (Analysis.analyse_image ?pool image) with _ -> None)
  in
  let kind_name = function
    | Depgraph.Reg_flow -> "register-flow"
    | Depgraph.Reg_output -> "register-output"
    | Depgraph.Mem -> "memory"
    | Depgraph.Ctrl -> "control"
  in
  (* iterated in lid order (not Hashtbl order) so the finding stream is
     deterministic; the caches live on the lint domain — this section is
     sequential, only the re-analysis above fans out *)
  let _, looptree_of = mk_caches () in
  List.iter
    (fun (lid, (fd : Desc.fission_desc)) ->
       let d = fd.Desc.fd_loop in
       let groups = fd.Desc.fd_groups in
       if groups = [] then
         add Error "fission-empty" ~lid
           "fission descriptor with no sub-loops"
       else begin
         if
           not
             (List.exists
                (fun (g : Desc.fission_group) -> g.Desc.fg_parallel)
                groups)
         then
           add Error "fission-no-parallel" ~lid
             "no sub-loop is parallel: the split only adds overhead";
         List.iter
           (fun (g : Desc.fission_group) ->
              if g.Desc.fg_insns = [] then
                add Error "fission-empty" ~lid
                  "fission sub-loop with no instructions")
           groups
       end;
       let listed =
         fd.Desc.fd_infra
         @ List.concat_map
             (fun (g : Desc.fission_group) -> g.Desc.fg_insns)
             groups
       in
       let rec dups = function
         | a :: b :: _ when a = b -> Some a
         | _ :: tl -> dups tl
         | [] -> None
       in
       (match dups (List.sort compare listed) with
        | Some a ->
          add Error "fission-overlap" ~addr:a ~lid
            "instruction assigned to two fission sub-loops (or to a \
             sub-loop and the shared infrastructure)"
        | None -> ());
       (* the sub-loops plus the infrastructure must partition the
          natural loop's body exactly *)
       (match func_containing d.Desc.header_addr with
        | None -> ()  (* descriptor-address warning already added *)
        | Some f ->
          let lt = looptree_of f in
          match
            List.find_opt
              (fun (l : Looptree.loop) ->
                 l.Looptree.header = d.Desc.header_addr)
              lt.Looptree.loops
          with
          | None -> ()
          | Some l ->
            let body = Hashtbl.create 32 in
            List.iter
              (fun baddr ->
                 match Hashtbl.find_opt f.Cfg.block_at baddr with
                 | Some b ->
                   Array.iter
                     (fun (ii : Cfg.insn_info) ->
                        Hashtbl.replace body ii.Cfg.addr ())
                     b.Cfg.insns
                 | None -> ())
              l.Looptree.body;
            List.iter
              (fun a ->
                 if not (Hashtbl.mem body a) then
                   add Error "fission-coverage" ~addr:a ~lid
                     "fission descriptor names an instruction outside \
                      the loop body")
              listed;
            Hashtbl.iter
              (fun a () ->
                 if not (List.mem a listed) then
                   add Error "fission-coverage" ~addr:a ~lid
                     "loop-body instruction missing from every fission \
                      sub-loop and the shared infrastructure: it would \
                      never execute")
              body);
       (* independent re-derivation: rebuild the dependence graph and
          plan from a fresh analysis of the image (including its own
          memory-conflict derivation over each sub-loop's accesses) and
          require the schedule to be at most as aggressive *)
       let para =
         List.concat_map
           (fun (g : Desc.fission_group) ->
              if g.Desc.fg_parallel then g.Desc.fg_insns else [])
           groups
       and seq =
         List.concat_map
           (fun (g : Desc.fission_group) ->
              if g.Desc.fg_parallel then [] else g.Desc.fg_insns)
           groups
       in
       match Lazy.force analysis with
       | None ->
         add Error "fission-rederive" ~lid
           "static re-analysis of the image failed"
       | Some t ->
         match
           List.find_opt
             (fun (r : Loopanal.report) ->
                r.Loopanal.loop.Looptree.header = d.Desc.header_addr)
             t.Analysis.reports
         with
         | None ->
           add Error "fission-rederive" ~lid
             (Fmt.str "no analysed loop has its header at 0x%x"
                d.Desc.header_addr)
         | Some rep ->
           match Depgraph.plan rep with
           | None ->
             add Error "fission-rederive" ~lid
               "independent re-derivation finds no sound fission plan \
                for this loop"
           | Some p ->
             List.iter
               (fun a ->
                  if not (List.mem a p.Depgraph.pl_product) then
                    add Error "fission-parallel-unsound" ~addr:a ~lid
                      "instruction scheduled into the DOALL product but \
                       re-derivation does not prove it carried-free")
               para;
             match Depgraph.build rep with
             | None -> ()
             | Some g ->
               (* members of carried-dependence cycles must stay in the
                  sequential residue *)
               List.iter
                 (fun a ->
                    if List.mem a para then
                      add Error "fission-carried-in-parallel" ~addr:a ~lid
                        "member of a loop-carried dependence scheduled \
                         into the DOALL product"
                    else if
                      (not (List.mem a seq))
                      && not (List.mem a fd.Desc.fd_infra)
                    then
                      add Error "fission-carried-in-parallel" ~addr:a ~lid
                        "carried-dependence member missing from the \
                         sequential residue")
                 (Depgraph.carried_members g);
               (* residue-ordering proof: no dependence of any kind may
                  cross the product/residue boundary, so running the
                  product phase first is equivalent to any interleaving,
                  and no value computed by one phase is consumed (live)
                  in the other *)
               let phase a =
                 if List.mem a para then `Product
                 else if List.mem a seq then `Residue
                 else `Infra
               in
               List.iter
                 (fun (e : Depgraph.edge) ->
                    let sa = g.Depgraph.dg_addrs.(e.Depgraph.e_src)
                    and da = g.Depgraph.dg_addrs.(e.Depgraph.e_dst) in
                    match phase sa, phase da with
                    | `Product, `Residue | `Residue, `Product ->
                      add Error "fission-cross-phase" ~addr:da ~lid
                        (Fmt.str
                           "%s dependence on %s crosses the product/\
                            residue boundary from 0x%x"
                           (kind_name e.Depgraph.e_kind)
                           e.Depgraph.e_tag sa)
                    | _ -> ())
                 g.Depgraph.dg_edges)
    (Hashtbl.fold (fun lid fd acc -> (lid, fd) :: acc) fission_descs []
     |> List.sort (fun (a, _) (b, _) -> compare a b));
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Cross-check against the classifier                                  *)
(* ------------------------------------------------------------------ *)

let crosscheck (t : Analysis.t) : finding list =
  let findings = ref [] in
  let add severity code ~lid message =
    findings := { severity; code; addr = None; lid = Some lid; message } :: !findings
  in
  List.iter
    (fun (r : Loopanal.report) ->
       let lid = r.Loopanal.loop.Looptree.lid in
       match r.Loopanal.cls with
       | Loopanal.Outer | Loopanal.Incompatible _ -> ()
       | cls ->
         let v = Memdep.rederive r.Loopanal.func r.Loopanal.loop in
         let summary xs = String.concat "; " xs in
         (match cls, v.Memdep.v_carried, v.Memdep.v_ambiguous with
          | Loopanal.Static_doall, (_ :: _ as carried), _ ->
            add Warning "crosscheck-carried" ~lid
              (Fmt.str
                 "classifier says DOALL but independent re-derivation \
                  found: %s" (summary carried))
          | Loopanal.Static_doall, [], (_ :: _ as amb) ->
            add Info "crosscheck-ambiguous" ~lid
              (Fmt.str
                 "classifier proves DOALL where re-derivation stops at: %s"
                 (summary amb))
          | Loopanal.Static_dep reason, [], [] ->
            add Info "crosscheck-clean" ~lid
              (Fmt.str
                 "classifier reports a dependence (%s) the re-derivation \
                  does not see" reason)
          | Loopanal.Ambiguous _, (_ :: _ as carried), _ ->
            add Info "crosscheck-carried-under-check" ~lid
              (Fmt.str
                 "runtime checks will decide, but re-derivation already \
                  sees: %s" (summary carried))
          | _ -> ()))
    t.Analysis.reports;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Demotion                                                            *)
(* ------------------------------------------------------------------ *)

let all_lids (s : Schedule.t) =
  List.filter_map rule_lid s.Schedule.rules |> List.sort_uniq compare

(* address extent of a loop, for attributing the lid-less
   LOOP_UPDATE_BOUND rules: header up to the end of the latch block *)
let loop_extent decode (d : Desc.loop_desc) =
  let rec block_end addr steps =
    if steps > 100_000 then None
    else
      match Hashtbl.find_opt decode addr with
      | None -> None
      | Some (i, len) ->
        if Insn.is_control_flow i then Some (addr + len - 1)
        else block_end (addr + len) (steps + 1)
  in
  match block_end d.Desc.latch_addr 0 with
  | Some hi -> Some (min d.Desc.header_addr d.Desc.latch_addr, hi)
  | None -> None

(* extents of the loops being demoted; None if any cannot be placed *)
let extents image (s : Schedule.t) lids =
  let decode = Image.decode_text image in
  let rec gather acc = function
    | [] -> Some acc
    | lid :: tl ->
      let desc =
        List.find_map
          (fun (r : Rule.t) ->
             (* a fission descriptor begins with its loop descriptor,
                so the same decode places fissioned loops *)
             if (r.Rule.id = Rule.LOOP_INIT || r.Rule.id = Rule.LOOP_FISSION)
                && Int64.to_int r.Rule.aux = lid
             then
               match Schedule.loop_desc s r.Rule.data with
               | d -> Some d
               | exception _ -> None
             else None)
          s.Schedule.rules
      in
      (match Option.map (loop_extent decode) desc with
       | Some (Some e) -> gather (e :: acc) tl
       | _ -> None)
  in
  gather [] lids

let demote image (s : Schedule.t) lids =
  if lids = [] then s
  else
    match extents image s lids with
    | None ->
      (* a failing loop cannot even be placed in the binary: drop the
         whole schedule — a pure DBM run is sequentially correct *)
      { s with Schedule.rules = [] }
    | Some exts ->
      let keep (r : Rule.t) =
        match rule_lid r with
        | Some l -> not (List.mem l lids)
        | None ->
          not
            (List.exists
               (fun (lo, hi) -> r.Rule.addr >= lo && r.Rule.addr <= hi)
               exts)
      in
      { s with Schedule.rules = List.filter keep s.Schedule.rules }

let check_and_demote ?pool image (s : Schedule.t) =
  let findings = lint ?pool image s in
  let failed = failed_loops findings in
  let unattributed =
    List.exists (fun f -> f.severity = Error && f.lid = None) findings
  in
  if failed = [] && not unattributed then (s, [], findings)
  else if unattributed then
    ({ s with Schedule.rules = [] }, all_lids s, findings)
  else
    let s' = demote image s failed in
    let demoted = if s'.Schedule.rules = [] then all_lids s else failed in
    (s', demoted, findings)
