(** Rewrite-schedule generation (Fig. 2(a)): encode the analysis results
    as rewrite rules and descriptors for the DBM to interpret. *)

open Janus_vx
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr

(* the last instruction of a block (rules attached there trigger with
   the block's final state, before control transfers) *)
let terminator_addr (f : Cfg.func) baddr =
  match Hashtbl.find_opt f.block_at baddr with
  | Some b ->
    let last = b.Cfg.insns.(Array.length b.Cfg.insns - 1) in
    Some last.Cfg.addr
  | None -> None

let distinct_exit_targets (l : Looptree.loop) =
  List.sort_uniq compare (List.map snd l.Looptree.exits)

(* TLS slot layout per loop: slot 0 is reserved for the per-thread
   bound (written by the runtime, read by the rewritten compare);
   privatised scalars occupy slots from 1. *)
(* syntactic bound expression from the compare instruction operand *)
let syntactic_bound (cfgt : Cfg.t) (iv : Loopanal.iv_info) =
  match Cfg.fetch cfgt iv.Loopanal.cmp_addr with
  | Some (Insn.Cmp (a, b), _) ->
    let operand = if iv.Loopanal.bound_operand_index = 0 then a else b in
    let of_mem (m : Operand.mem) =
      let base =
        match m.Operand.base with
        | Some r -> Some (Rexpr.Reg r)
        | None -> None
      in
      let index =
        match m.Operand.index with
        | Some r ->
          Some (Rexpr.Mul (Rexpr.Const (Int64.of_int m.Operand.scale), Rexpr.Reg r))
        | None -> None
      in
      let acc = Rexpr.Const (Int64.of_int m.Operand.disp) in
      let acc = match base with Some b -> Rexpr.Add (acc, b) | None -> acc in
      let acc = match index with Some i -> Rexpr.Add (acc, i) | None -> acc in
      Rexpr.Load acc
    in
    (match operand with
     | Operand.Reg r -> Some (Rexpr.Reg r)
     | Operand.Imm v -> Some (Rexpr.Const v)
     | Operand.Mem m -> Some (of_mem m))
  | _ -> None

(** Build the parallelisation loop descriptor for a selected loop. *)
let loop_desc (cfgt : Cfg.t) (r : Loopanal.report) ~policy : Desc.loop_desc option =
  match r.Loopanal.iv, r.Loopanal.loop.Looptree.preheader with
  | Some iv, Some preheader ->
    let bound =
      match iv.Loopanal.iv_bound_rexpr with
      | Some e -> Some e
      | None -> syntactic_bound cfgt iv
    in
    (match bound with
     | None -> None
     | Some iv_bound ->
       let loc_of = function
         | Sympoly.Rloc r -> Desc.Lreg r
         | Sympoly.Floc r -> Desc.Lfreg r
         | Sympoly.Sloc off -> Desc.Lstack off
         | Sympoly.Gloc a -> Desc.Labs a
       in
       let privatised =
         List.mapi
           (fun i loc ->
              let e =
                match loc with
                | Sympoly.Sloc off ->
                  Rexpr.Add (Rexpr.Reg Reg.RSP, Rexpr.Const (Int64.of_int off))
                | Sympoly.Gloc a -> Rexpr.Const (Int64.of_int a)
                | Sympoly.Rloc _ | Sympoly.Floc _ -> Rexpr.Const 0L
              in
              (e, i + 1))
           r.Loopanal.privatised
       in
       Some
         {
           Desc.loop_id = r.Loopanal.loop.Looptree.lid;
           header_addr = r.Loopanal.loop.Looptree.header;
           preheader_addr = preheader;
           exit_addrs = distinct_exit_targets r.Loopanal.loop;
           latch_addr =
             (match r.Loopanal.loop.Looptree.latches with
              | l :: _ -> l
              | [] -> r.Loopanal.loop.Looptree.header);
           iv = loc_of iv.Loopanal.iv_loc;
           iv_step = iv.Loopanal.iv_step;
           iv_cond = iv.Loopanal.iv_cond;
           iv_init = iv.Loopanal.iv_init_rexpr;
           iv_bound;
           iv_bound_adjust = iv.Loopanal.bound_adjust;
           policy;
           reductions = r.Loopanal.reductions;
           privatised;
           live_out_gps = r.Loopanal.modified_gps;
           live_out_fps = r.Loopanal.modified_fps;
           frame_copy_bytes = max 128 (r.Loopanal.frame_low + 64);
         })
  | _ -> None

(** The runtime bounds check over a loop's array footprints (Fig. 4);
    [None] when the loop's parallel version needs none. *)
let check_desc (r : Loopanal.report) =
  match r.Loopanal.check_ranges with
  | [] -> None
  | ranges ->
    Some
      {
        Desc.check_loop_id = r.Loopanal.loop.Looptree.lid;
        ranges =
          List.map
            (fun (c : Loopanal.check_range) ->
               { Desc.base = c.Loopanal.ck_base;
                 extent = c.Loopanal.ck_extent;
                 width = c.Loopanal.ck_width;
                 written = c.Loopanal.ck_written })
            ranges;
      }

(* The rules that deploy loop [r], whose descriptor sits at [desc_off]:
   [entry] (LOOP_INIT or LOOP_FISSION) and the register spill at the
   header, thread scheduling, yield + finish + recover at each exit, the
   per-thread bound update, privatisation and main-stack reads. *)
let emit_loop_rules b (r : Loopanal.report) (iv : Loopanal.iv_info) ~entry
    ~desc_off =
  let l = r.Loopanal.loop in
  let lid = Int64.of_int l.Looptree.lid in
  let add ?aux addr data id =
    Schedule.add_rule b (Rule.make ~addr ~data ?aux id)
  in
  (* the entry rule triggers at the header: the first instruction the
     loop executes, after the preheader has fully run. On the
     sequential-fallback path the runtime gates re-firing. *)
  add l.Looptree.header ~aux:lid (Int64.of_int desc_off) entry;
  (* spill registers clobbered by injected code *)
  let mask =
    List.fold_left
      (fun acc r -> acc lor (1 lsl Reg.gp_index r))
      0 r.Loopanal.modified_gps
  in
  add l.Looptree.header ~aux:lid (Int64.of_int mask) Rule.MEM_SPILL_REG;
  (* thread scheduling at the header, yield + finish at exits *)
  add l.Looptree.header lid Rule.THREAD_SCHEDULE;
  List.iter
    (fun target ->
       add target ~aux:lid lid Rule.THREAD_YIELD;
       add target ~aux:lid (Int64.of_int desc_off) Rule.LOOP_FINISH;
       add target ~aux:lid 0L Rule.MEM_RECOVER_REG)
    (distinct_exit_targets l);
  (* per-thread bound update at the governing compare *)
  add iv.Loopanal.cmp_addr ~aux:iv.Loopanal.bound_adjust
    (Int64.of_int iv.Loopanal.bound_operand_index) Rule.LOOP_UPDATE_BOUND;
  (* privatisation *)
  List.iter
    (fun (insn_addr, loc) ->
       let slot =
         let rec find i = function
           | [] -> 0
           | l' :: tl ->
             if Sympoly.loc_equal l' loc then i + 1 else find (i + 1) tl
         in
         find 0 r.Loopanal.privatised
       in
       if slot > 0 then
         add insn_addr ~aux:lid (Int64.of_int slot) Rule.MEM_PRIVATISE)
    r.Loopanal.priv_insns;
  (* read-only stack accesses can target the shared main stack ...
     except the governing compare, whose memory operand is being
     rewritten by LOOP_UPDATE_BOUND *)
  List.iter
    (fun insn_addr ->
       if insn_addr <> iv.Loopanal.cmp_addr then
         add insn_addr ~aux:lid 0L Rule.MEM_MAIN_STACK)
    (List.sort_uniq compare r.Loopanal.main_stack_reads)

(** Emit parallelisation rules for one selected loop into [b]. Returns
    false if the loop cannot be encoded. *)
let emit_parallel_rules (cfgt : Cfg.t) b (r : Loopanal.report) ~policy =
  match loop_desc cfgt r ~policy, r.Loopanal.iv with
  | Some desc, Some iv ->
    let lid = Int64.of_int r.Loopanal.loop.Looptree.lid in
    let desc_off = Schedule.add_loop_desc b desc in
    (* bounds check first (same-address rules run in order) *)
    Option.iter
      (fun cd ->
         let coff = Schedule.add_check_desc b cd in
         Schedule.add_rule b
           (Rule.make ~addr:r.Loopanal.loop.Looptree.header
              ~data:(Int64.of_int coff) ~aux:lid Rule.MEM_BOUNDS_CHECK))
      (check_desc r);
    emit_loop_rules b r iv ~entry:Rule.LOOP_INIT ~desc_off;
    (* speculation around dynamically discovered code *)
    List.iter
      (fun (call_addr, _) ->
         Schedule.add_rule b
           (Rule.make ~addr:call_addr ~data:lid Rule.TX_START);
         match Cfg.fetch cfgt call_addr with
         | Some (_, len) ->
           Schedule.add_rule b
             (Rule.make ~addr:(call_addr + len) ~data:lid Rule.TX_FINISH)
         | None -> ())
      (r.Loopanal.excall_sites
       @ List.map (fun (a, t) -> (a, string_of_int t)) r.Loopanal.local_call_sites);
    true
  | _ -> false

(** The profiling schedule of one training run: loop and external-call
    probes on every feasible loop, and the ambiguous loops' unresolved
    accesses watched. *)
let profiling_schedule (cfgt : Cfg.t) (reports : Loopanal.report list) =
  let b = Schedule.builder Schedule.Profiling in
  List.iter
    (fun (r : Loopanal.report) ->
       match r.Loopanal.cls with
       | Loopanal.Incompatible _ -> ()
       | cls ->
         let l = r.Loopanal.loop in
         let lid = Int64.of_int l.Looptree.lid in
         (match l.Looptree.preheader with
          | Some p ->
            (match terminator_addr r.Loopanal.func p with
             | Some a ->
               Schedule.add_rule b (Rule.make ~addr:a ~data:lid Rule.PROF_LOOP_START)
             | None -> ())
          | None -> ());
         Schedule.add_rule b
           (Rule.make ~addr:l.Looptree.header ~data:lid Rule.PROF_LOOP_ITER);
         List.iter
           (fun target ->
              Schedule.add_rule b
                (Rule.make ~addr:target ~data:lid Rule.PROF_LOOP_FINISH))
           (distinct_exit_targets l);
         List.iter
           (fun (call_addr, _) ->
              Schedule.add_rule b
                (Rule.make ~addr:call_addr ~data:lid Rule.PROF_EXCALL_START);
              match Cfg.fetch cfgt call_addr with
              | Some (_, len) ->
                Schedule.add_rule b
                  (Rule.make ~addr:(call_addr + len) ~data:lid
                     Rule.PROF_EXCALL_FINISH)
              | None -> ())
           r.Loopanal.excall_sites;
         (* dependence profiling instruments exactly the accesses the
            static pass could not disambiguate — not every load and
            store (§II-C); all of them are memory instructions, so no
            event lands on a direct jump a trace would elide *)
         (match cls with
          | Loopanal.Ambiguous _ ->
            List.iter
              (fun (g : Loopanal.access_sum) ->
                 Schedule.add_rule b
                   (Rule.make ~addr:g.Loopanal.g_insn
                      ~data:lid
                      ~aux:(if g.Loopanal.g_write then 1L else 0L)
                      Rule.PROF_MEM_ACCESS))
              (List.filter
                 (fun (g : Loopanal.access_sum) ->
                    (* instrument only statically unresolved non-stack
                       accesses: spill slots are thread-private at
                       runtime and their reuse is not a loop dependence *)
                    (not g.Loopanal.g_stack)
                    && (g.Loopanal.g_opaque
                        ||
                        match Sympoly.to_const g.Loopanal.g_base with
                        | Some _ -> false  (* statically resolved *)
                        | None -> true))
                 r.Loopanal.accesses)
          | _ -> ()))
    reports;
  Schedule.build b

(** {2 Loop fission (extension)}

    A Static-Dependence loop whose dependence graph splits into a
    carried-free part and a carried part (Aubert et al.'s fission
    condition, computed by {!Depgraph.plan}) is distributed: a
    LOOP_FISSION rule at the header carries a fission descriptor
    naming the sub-loop instruction groups, and the runtime executes
    the groups as consecutive full-range loop instances — the DOALL
    product in parallel, the sequential residue single-threaded. The
    supporting rules (spill/recover, scheduling, bound update,
    privatisation, main-stack reads) are those of an ordinary DOALL
    loop; speculation and bounds-check rules are never needed because
    the plan requires every access be statically resolved. *)

let emit_fission_rules (cfgt : Cfg.t) b (r : Loopanal.report)
    (p : Depgraph.plan) =
  match loop_desc cfgt r ~policy:Desc.Chunked, r.Loopanal.iv with
  | Some desc, Some iv ->
    let fdesc =
      {
        Desc.fd_loop = desc;
        fd_infra = p.Depgraph.pl_infra;
        fd_groups =
          [
            { Desc.fg_insns = p.Depgraph.pl_product; fg_parallel = true };
            { Desc.fg_insns = p.Depgraph.pl_residue; fg_parallel = false };
          ];
      }
    in
    (* a fission descriptor begins with its loop descriptor, so its
       offset doubles as a loop-descriptor offset for LOOP_FINISH *)
    let desc_off = Schedule.add_fission_desc b fdesc in
    emit_loop_rules b r iv ~entry:Rule.LOOP_FISSION ~desc_off;
    true
  | _ -> false

(** {2 Software prefetching (extension)}

    The paper's conclusion names prefetching as another optimisation
    expressible in the same rule format. A MEM_PREFETCH rule on a
    strided access makes the DBM insert a prefetch hint
    [prefetch_distance] bytes ahead in the stride direction, hiding the
    cold-line latency of streaming loops. *)

let prefetch_distance = 512

let emit_prefetch_rules b (r : Loopanal.report) =
  let candidates =
    List.filter_map
      (fun (g : Loopanal.access_sum) ->
         (* strided, statically understood, not a private stack slot;
            huge strides jump lines unpredictably and are skipped *)
         if (not g.Loopanal.g_stack)
            && (not g.Loopanal.g_opaque)
            && (not (Int64.equal g.Loopanal.g_k 0L))
            && Int64.compare (Int64.abs g.Loopanal.g_k) 64L <= 0
         then
           let dist =
             if Int64.compare g.Loopanal.g_k 0L > 0 then prefetch_distance
             else -prefetch_distance
           in
           Some (g.Loopanal.g_insn, dist)
         else None)
      r.Loopanal.accesses
  in
  List.iter
    (fun (addr, dist) ->
       Schedule.add_rule b
         (Rule.make ~addr ~data:(Int64.of_int dist)
            ~aux:(Int64.of_int r.Loopanal.loop.Looptree.lid)
            Rule.MEM_PREFETCH))
    (List.sort_uniq compare candidates)

(** Parallelisation schedule for a set of selected loops. *)
let parallel_schedule ?(prefetch = false) ?(fission = false) (cfgt : Cfg.t)
    (selected : (Loopanal.report * Desc.policy) list) =
  let b = Schedule.builder Schedule.Parallelisation in
  let ok =
    List.filter
      (fun (r, policy) ->
         let encoded =
           match r.Loopanal.cls with
           | Loopanal.Static_dep _ when fission ->
             (match Depgraph.plan r with
              | Some p -> emit_fission_rules cfgt b r p
              | None -> false)
           | _ -> emit_parallel_rules cfgt b r ~policy
         in
         if encoded && prefetch then emit_prefetch_rules b r;
         encoded)
      selected
  in
  (Schedule.build b, List.map fst ok)
