(** The Janus parallel runtime (§II-E): thread pool of virtual hardware
    threads with private stacks, TLS and code caches; chunked and
    round-robin iteration scheduling; runtime array-bounds checks with
    sequential fallback; software-transactional execution of
    dynamically discovered code.

    Virtual multicore timing: a parallel invocation costs
    init + max(worker cycles) + finish on the main thread's clock. The
    workers really execute their iterations against shared guest
    memory — results are bit-identical to sequential execution, which
    the test suite verifies against the native VM. *)

open Janus_vx
open Janus_vm
module Rule = Janus_schedule.Rule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr
module Schedule = Janus_schedule.Schedule
module Dbm = Janus_dbm.Dbm
module Obs = Janus_obs.Obs
module Adapt = Janus_adapt.Adapt

type config = {
  threads : int;
  force_policy : Desc.policy option;  (* override descriptors (ablation) *)
  stm_everywhere : bool;
  (* ablation of the paper's "use it sparingly" argument (§II-E2):
     wrap every worker chunk in a transaction, buffering all of its
     accesses, instead of speculating only on discovered code *)
  fuel : int;  (* per-chunk worker instruction budget *)
}

let default_config =
  { threads = 8; force_policy = None; stm_everywhere = false;
    fuel = 400_000_000 }

(* a transaction buffering more accesses than this counts as an
   overflow ([rt.stm_overflows]) *)
let stm_access_limit = 4096

type t = {
  dbm : Dbm.t;
  config : config;
  main_cache : Dbm.cache;
  worker_caches : Dbm.cache array;
  loop_sequential : (int, bool) Hashtbl.t;  (* check failed: run serial *)
  loop_in_seq : (int, bool) Hashtbl.t;  (* currently running serially *)
  loop_invocations : (int, int) Hashtbl.t;
  fission_caches : (int * int, Dbm.cache array) Hashtbl.t;
  (* (loop id, phase) -> worker caches whose skip filter elides the
     other sub-loops' instructions; built on first use, then reused
     across invocations like the ordinary worker caches *)
  mutable fission_phases : int;  (* sub-loop instances executed *)
  mutable current_loop : int;  (* loop id the workers are executing *)
  skip_tx : (int * int, unit) Hashtbl.t;
  (* (worker, call addr): re-execute non-speculatively after abort.
     Cleared at every LOOP_INIT so entries never leak into a later
     invocation (a stale pair would silently suppress speculation). *)
  mutable stm_overflows : int;
  adapt : Adapt.t option;  (* online governor, when configured *)
  gov_seq : (int, int) Hashtbl.t;
  (* loop id -> main cycles when a governor-sequential (or sampling)
     invocation began; consumed at LOOP_FINISH *)
  inv_checks : (int, int * int) Hashtbl.t;
  (* loop id -> (check evaluations, check cycles) of the {e current}
     invocation. Consumed and cleared at every LOOP_INIT — the same
     bug family as [skip_tx]: a stale entry would charge one
     invocation's check cost to the next. *)
  mutable max_inv_checks : int;  (* high-water mark, for regression tests *)
  mutable last_sum_cycles : int;
  (* summed worker cycles of the most recent parallel invocation: the
     realised work the governor compares against the main-thread cost *)
}

(* the tracing/metrics sink rides on the DBM *)
let obs t = t.dbm.Dbm.obs

let rexpr_env (ctx : Machine.t) : Rexpr.env =
  {
    Rexpr.get_reg = (fun r -> Machine.get ctx r);
    load = (fun a -> Memory.read_i64 ctx.Machine.mem a);
  }

(* ------------------------------------------------------------------ *)
(* Iteration-space arithmetic                                          *)
(* ------------------------------------------------------------------ *)

(* number of iterations for iv = init; while (iv cond bound); iv += step *)
let trip_count ~init ~bound ~step ~cond =
  let open Int64 in
  let diff = sub bound init in
  if equal step 0L then 0
  else
    let up = compare step 0L > 0 in
    match cond with
    | Cond.Lt | Cond.Ult ->
      if not up || compare diff 0L <= 0 then 0
      else to_int (div (add diff (sub step 1L)) step)
    | Cond.Le | Cond.Ule ->
      if not up || compare diff 0L < 0 then 0
      else to_int (add (div diff step) 1L)
    | Cond.Gt | Cond.Ugt ->
      if up || compare diff 0L >= 0 then 0
      else to_int (div (add diff (add step 1L)) step)
    | Cond.Ge | Cond.Uge ->
      if up || compare diff 0L > 0 then 0
      else to_int (add (div diff step) 1L)
    | Cond.Ne ->
      let q = if equal (rem diff step) 0L then div diff step else 0L in
      if compare q 0L > 0 then to_int q else 0
    | Cond.Eq | Cond.S | Cond.Ns -> 0

(* the TLS bound-slot value for a chunk ending (exclusively) at
   [end_iv]: the rewritten compare continues while (iv + adjust) cond
   slot *)
let bound_slot_value ~end_iv ~step ~cond ~adjust =
  let open Int64 in
  match cond with
  | Cond.Le | Cond.Ule | Cond.Ge | Cond.Uge -> add (sub end_iv step) adjust
  | _ -> add end_iv adjust

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ?adapt (dbm : Dbm.t) =
  Program.add_thread_regions dbm.Dbm.prog ~threads:config.threads;
  let t =
    {
      dbm;
      config;
      main_cache = Dbm.new_cache Dbm.Main;
      worker_caches =
        Array.init config.threads (fun w -> Dbm.new_cache (Dbm.Worker w));
      loop_sequential = Hashtbl.create 8;
      loop_in_seq = Hashtbl.create 8;
      loop_invocations = Hashtbl.create 8;
      fission_caches = Hashtbl.create 8;
      fission_phases = 0;
      current_loop = -1;
      skip_tx = Hashtbl.create 16;
      stm_overflows = 0;
      adapt;
      gov_seq = Hashtbl.create 8;
      inv_checks = Hashtbl.create 8;
      max_inv_checks = 0;
      last_sum_cycles = 0;
    }
  in
  t

let governor t = t.adapt

(* ------------------------------------------------------------------ *)
(* Runtime array-bounds check (§II-E1)                                 *)
(* ------------------------------------------------------------------ *)

let eval_check t (ctx : Machine.t) (cd : Desc.check_desc) =
  let env = rexpr_env ctx in
  let ranges =
    List.map
      (fun (r : Desc.array_range) ->
         let a = Rexpr.eval env r.Desc.base in
         let e = Rexpr.eval env r.Desc.extent in
         let lo = Int64.to_int (if Int64.compare e 0L < 0 then Int64.add a e else a) in
         let hi =
           Int64.to_int (if Int64.compare e 0L < 0 then a else Int64.add a e)
           + r.Desc.width
         in
         (lo, hi, r.Desc.written))
      cd.Desc.ranges
  in
  let pairs = Desc.check_pairs cd in
  let cost = Cost.bounds_check_per_pair * max 1 pairs in
  ctx.Machine.cycles <- ctx.Machine.cycles + cost;
  t.dbm.Dbm.stats.Dbm.check_cycles <-
    t.dbm.Dbm.stats.Dbm.check_cycles + cost;
  (* all written ranges must be disjoint from every other range *)
  let disjoint (lo1, hi1) (lo2, hi2) = hi1 <= lo2 || hi2 <= lo1 in
  List.for_all
    (fun (lo1, hi1, w1) ->
       (not w1)
       || List.for_all
            (fun (lo2, hi2, _) ->
               (lo1 = lo2 && hi1 = hi2) || disjoint (lo1, hi1) (lo2, hi2))
            (List.filter (fun (lo2, hi2, _) -> not (lo1 = lo2 && hi1 = hi2)) ranges))
    ranges

(* ------------------------------------------------------------------ *)
(* Location access in a thread context                                 *)
(* ------------------------------------------------------------------ *)

let read_loc (ctx : Machine.t) = function
  | Desc.Lreg r -> Machine.get ctx r
  | Desc.Lfreg r -> Int64.bits_of_float (Machine.getf ctx r 0)
  | Desc.Lstack off ->
    Memory.read_i64 ctx.Machine.mem
      (Int64.to_int (Machine.get ctx Reg.RSP) + off)
  | Desc.Labs a -> Memory.read_i64 ctx.Machine.mem a

let write_loc (ctx : Machine.t) loc v =
  match loc with
  | Desc.Lreg r -> Machine.set ctx r v
  | Desc.Lfreg r -> Machine.setf ctx r 0 (Int64.float_of_bits v)
  | Desc.Lstack off ->
    Memory.write_i64 ctx.Machine.mem
      (Int64.to_int (Machine.get ctx Reg.RSP) + off)
      v
  | Desc.Labs a -> Memory.write_i64 ctx.Machine.mem a v

let redop_identity = function
  | Desc.Radd_int -> 0L
  | Desc.Radd_f64 -> Int64.bits_of_float 0.0
  | Desc.Rmul_f64 -> Int64.bits_of_float 1.0

let redop_combine op a b =
  match op with
  | Desc.Radd_int -> Int64.add a b
  | Desc.Radd_f64 ->
    Int64.bits_of_float (Int64.float_of_bits a +. Int64.float_of_bits b)
  | Desc.Rmul_f64 ->
    Int64.bits_of_float (Int64.float_of_bits a *. Int64.float_of_bits b)

(* the TLS slot assigned to a privatised absolute address, if any *)
let tls_slot_of_abs (desc : Desc.loop_desc) addr =
  List.find_map
    (fun (e, slot) ->
       match e with
       | Rexpr.Const a when Int64.to_int a = addr -> Some slot
       | _ -> None)
    desc.Desc.privatised

(* where a reduction partial lives in a worker *)
let read_partial (desc : Desc.loop_desc) w (ctx_w : Machine.t) loc =
  match loc with
  | Desc.Labs a -> begin
      match tls_slot_of_abs desc a with
      | Some slot ->
        Memory.read_i64 ctx_w.Machine.mem (Layout.tls_base w + (8 * slot))
      | None -> read_loc ctx_w loc
    end
  | _ -> read_loc ctx_w loc

let write_partial (desc : Desc.loop_desc) w (ctx_w : Machine.t) loc v =
  match loc with
  | Desc.Labs a -> begin
      match tls_slot_of_abs desc a with
      | Some slot ->
        Memory.write_i64 ctx_w.Machine.mem (Layout.tls_base w + (8 * slot)) v
      | None -> write_loc ctx_w loc v
    end
  | _ -> write_loc ctx_w loc v

(* ------------------------------------------------------------------ *)
(* Parallel loop execution (§II-E)                                     *)
(* ------------------------------------------------------------------ *)

exception Worker_escaped of int  (* worker ended somewhere unexpected *)
exception Worker_out_of_fuel of int * int  (* worker, application address *)

let copy_frame (mem : Memory.t) ~src ~dst ~bytes =
  let words = (bytes + 7) / 8 in
  for i = 0 to words - 1 do
    Memory.write_i64 mem (dst + (8 * i)) (Memory.read_i64 mem (src + (8 * i)))
  done

type chunk = { c_start : int64; c_end : int64 }  (* canonical iv range *)

(* contiguous chunks, one per thread *)
let chunked_chunks ~init ~step ~trips ~threads =
  let per = (trips + threads - 1) / threads in
  List.init threads (fun w ->
      let lo = w * per in
      let hi = min trips (lo + per) in
      if lo >= hi then []
      else
        [ { c_start = Int64.add init (Int64.mul (Int64.of_int lo) step);
            c_end = Int64.add init (Int64.mul (Int64.of_int hi) step) } ])
  |> Array.of_list

(* round-robin blocks of [block] iterations *)
let rr_chunks ~init ~step ~trips ~threads ~block =
  let chunks = Array.make threads [] in
  let nblocks = (trips + block - 1) / block in
  for b = nblocks - 1 downto 0 do
    let w = b mod threads in
    let lo = b * block in
    let hi = min trips (lo + block) in
    chunks.(w) <-
      { c_start = Int64.add init (Int64.mul (Int64.of_int lo) step);
        c_end = Int64.add init (Int64.mul (Int64.of_int hi) step) }
      :: chunks.(w)
  done;
  chunks

(* [caches] substitutes the runtime's worker caches (fission phases run
   against caches that elide the other sub-loops); [max_threads] caps
   the invocation's parallelism (a sequential residue runs with 1);
   [iv_range] supplies a pre-evaluated (init, bound) — a later fission
   phase must not re-evaluate [iv_init] against registers the earlier
   phases already advanced *)
let run_parallel_loop ?caches ?max_threads ?iv_range t (main : Machine.t)
    (desc : Desc.loop_desc) ~bound_adjust =
  t.current_loop <- desc.Desc.loop_id;
  let stats = t.dbm.Dbm.stats in
  let env = rexpr_env main in
  let init, bound =
    match iv_range with
    | Some (i, b) -> (i, b)
    | None ->
      (Rexpr.eval env desc.Desc.iv_init, Rexpr.eval env desc.Desc.iv_bound)
  in
  let step = desc.Desc.iv_step in
  let cond = desc.Desc.iv_cond in
  let trips = trip_count ~init ~bound ~step ~cond in
  if trips <= 0 then `Sequential
  else begin
    let worker_caches =
      match caches with Some c -> c | None -> t.worker_caches
    in
    let thread_cap =
      match max_threads with
      | Some m -> min m t.config.threads
      | None -> t.config.threads
    in
    let threads = min thread_cap (max 1 trips) in
    (match obs t with
     | Some o when Obs.tracing o ->
       Obs.emit o ~tid:0 ~ts:main.Machine.cycles
         (Obs.Loop_init { loop_id = desc.Desc.loop_id; threads; trips })
     | _ -> ());
    let policy =
      match t.config.force_policy with
      | Some p -> p
      | None -> desc.Desc.policy
    in
    let chunks =
      match policy with
      | Desc.Chunked | Desc.Doacross _ ->
        chunked_chunks ~init ~step ~trips ~threads
      | Desc.Round_robin block ->
        rr_chunks ~init ~step ~trips ~threads ~block:(max 1 block)
    in
    (* DOACROSS (future work, §III-A): chunks run in iteration order
       with context hand-off; only the non-carried fraction overlaps *)
    let doacross_frac =
      match policy with
      | Desc.Doacross pct -> Some (float_of_int (max 0 (min 100 pct)) /. 100.0)
      | Desc.Chunked | Desc.Round_robin _ -> None
    in
    (* init costs: signal threads, copy contexts *)
    let init_cost =
      Cost.loop_init_base
      + (threads * (Cost.thread_signal + Cost.thread_context_copy))
    in
    main.Machine.cycles <- main.Machine.cycles + init_cost;
    stats.Dbm.init_finish_cycles <- stats.Dbm.init_finish_cycles + init_cost;
    let rsp_main = Int64.to_int (Machine.get main Reg.RSP) in
    let rbp_main = Int64.to_int (Machine.get main Reg.RBP) in
    (* the body may address the frame through RBP; the private copy
       must reach the saved-RBP slot, or workers whose copy window
       stops short would keep RBP pointing into the main stack and
       rbp-relative stores (reduction accumulators included) would
       alias the shared frame *)
    let fcb =
      let span = rbp_main - rsp_main in
      if span >= 0 && span < 65536 then
        max desc.Desc.frame_copy_bytes (span + 16)
      else desc.Desc.frame_copy_bytes
    in
    (* reduction bases are main's pre-loop values *)
    let red_bases =
      List.map (fun (loc, op) -> (loc, op, read_loc main loc)) desc.Desc.reductions
    in
    let max_cycles = ref 0 in
    let sum_cycles = ref 0 in
    let partials = ref [] in  (* per worker: (loc, op, partial) list *)
    let last_ctx = ref None in
    for w = 0 to threads - 1 do
      if chunks.(w) <> [] then begin
        (* DOACROSS workers continue from the previous worker's context
           (registers, flags and frame), which carries the
           cross-iteration values exactly as sequential execution *)
        let chain_src =
          match doacross_frac, !last_ctx with
          | Some _, Some (wp, ctxp) ->
            Some (ctxp, Int64.to_int (Machine.get ctxp Reg.RSP), wp)
          | _ -> None
        in
        let ctx =
          match chain_src with
          | Some (ctxp, _, _) -> Machine.fork ctxp
          | None -> Machine.fork main
        in
        (* private stack with a copy of the live frame *)
        let rsp_w = Layout.tstack_top w - ((fcb + 15) land lnot 15) - 64 in
        let frame_src =
          match chain_src with Some (_, rsp_p, _) -> rsp_p | None -> rsp_main
        in
        copy_frame main.Machine.mem ~src:frame_src ~dst:rsp_w ~bytes:fcb;
        Machine.set ctx Reg.RSP (Int64.of_int rsp_w);
        if rbp_main >= rsp_main && rbp_main - rsp_main < fcb then
          Machine.set ctx Reg.RBP (Int64.of_int (rsp_w + (rbp_main - rsp_main)));
        Machine.set ctx Reg.TLS (Int64.of_int (Layout.tls_base w));
        Machine.set ctx Reg.SHARED (Int64.of_int rbp_main);
        (* first-private copies of privatised scalars: main's pre-loop
           value, or — for a chained DOACROSS worker — the value its
           predecessor's slot holds after the earlier iterations *)
        List.iter
          (fun (e, slot) ->
             let src =
               match chain_src with
               | Some (_, _, wp) -> Layout.tls_base wp + (8 * slot)
               | None -> Int64.to_int (Rexpr.eval env e)
             in
             Memory.write_i64 ctx.Machine.mem
               (Layout.tls_base w + (8 * slot))
               (Memory.read_i64 main.Machine.mem src))
          desc.Desc.privatised;
        (* reduction identities (chained contexts already carry the
           running value, so DOACROSS workers keep it) *)
        if doacross_frac = None then
          List.iter
            (fun (loc, op) -> write_partial desc w ctx loc (redop_identity op))
            desc.Desc.reductions;
        (* run each chunk *)
        List.iter
          (fun c ->
             let c_t0 = ctx.Machine.cycles in
             write_loc ctx desc.Desc.iv c.c_start;
             Memory.write_i64 ctx.Machine.mem
               (Layout.tls_base w)
               (bound_slot_value ~end_iv:c.c_end ~step ~cond
                  ~adjust:bound_adjust);
             ctx.Machine.cycles <- ctx.Machine.cycles + Cost.sched_block_fetch;
             ctx.Machine.rip <- desc.Desc.header_addr;
             let chunk_txn =
               if t.config.stm_everywhere then Some (Machine.start_txn ctx)
               else None
             in
             (match Dbm.run ~fuel:t.config.fuel t.dbm worker_caches.(w) ctx with
              | `Yielded -> ()
              | `Halted -> raise (Worker_escaped w)
              | `Out_of_fuel addr -> raise (Worker_out_of_fuel (w, addr)));
             (match chunk_txn with
             | Some txn ->
               (* chunks are executed in order, so validation always
                  succeeds; the cost of tracking and committing is the
                  point of the ablation *)
               ctx.Machine.cycles <-
                 ctx.Machine.cycles
                 + (Cost.stm_validate_per_entry
                    * Hashtbl.length txn.Machine.treads)
                 + (Cost.stm_commit_per_entry
                    * Hashtbl.length txn.Machine.twrites);
               Hashtbl.iter
                 (fun addr v -> Memory.write_i64 ctx.Machine.mem addr v)
                 txn.Machine.twrites;
               stats.Dbm.stm_commits <- stats.Dbm.stm_commits + 1;
               Machine.end_txn ctx
             | None -> ());
             match obs t with
             | Some o ->
               let iters =
                 Int64.to_int (Int64.div (Int64.sub c.c_end c.c_start) step)
               in
               Obs.incr o "rt.chunks";
               Obs.observe o "rt.chunk_iters" iters;
               if Obs.tracing o then
                 Obs.emit o ~tid:(w + 1) ~ts:c_t0
                   ~dur:(ctx.Machine.cycles - c_t0)
                   (Obs.Chunk_dispatched
                      { loop_id = desc.Desc.loop_id; worker = w;
                        iv_start = c.c_start; iv_end = c.c_end; iters })
             | None -> ())
          chunks.(w);
        if doacross_frac = None then
          partials :=
            (w, List.map
               (fun (loc, op) -> (loc, op, read_partial desc w ctx loc))
               desc.Desc.reductions)
            :: !partials;
        if ctx.Machine.cycles > !max_cycles then max_cycles := ctx.Machine.cycles;
        sum_cycles := !sum_cycles + ctx.Machine.cycles;
        main.Machine.icount <- main.Machine.icount + ctx.Machine.icount;
        last_ctx := Some (w, ctx)
      end
    done;
    t.last_sum_cycles <- !sum_cycles;
    (* wall-clock: DOALL is bounded by the slowest worker; DOACROSS
       serialises the carried fraction and overlaps the rest *)
    let region_cycles =
      match doacross_frac with
      | None -> !max_cycles
      | Some f ->
        let sync = threads * Cost.doacross_sync in
        int_of_float
          ((f *. float_of_int !sum_cycles)
           +. ((1.0 -. f) *. float_of_int !max_cycles))
        + sync
    in
    main.Machine.cycles <- main.Machine.cycles + region_cycles;
    stats.Dbm.parallel_cycles <- stats.Dbm.parallel_cycles + region_cycles;
    (* combine: last worker's context becomes the post-loop state *)
    (match !last_ctx with
     | Some (wl, ctx_l) ->
       let rsp_l = Int64.to_int (Machine.get ctx_l Reg.RSP) in
       copy_frame main.Machine.mem ~src:rsp_l ~dst:rsp_main ~bytes:fcb;
       Bytes.blit ctx_l.Machine.regs 0 main.Machine.regs 0
         (Bytes.length main.Machine.regs);
       Array.blit ctx_l.Machine.fregs 0 main.Machine.fregs 0
         (Array.length main.Machine.fregs);
       main.Machine.flags <- ctx_l.Machine.flags;
       main.Machine.brk <- ctx_l.Machine.brk;
       (* restore main's own pointers *)
       Machine.set main Reg.RSP (Int64.of_int rsp_main);
       Machine.set main Reg.RBP (Int64.of_int rbp_main);
       Machine.set main Reg.TLS 0L;
       Machine.set main Reg.SHARED 0L;
       (* privatised copy-out: last value lands at the real location *)
       List.iter
         (fun (e, slot) ->
            let addr = Int64.to_int (Rexpr.eval env e) in
            Memory.write_i64 main.Machine.mem addr
              (Memory.read_i64 main.Machine.mem
                 (Layout.tls_base wl + (8 * slot))))
         desc.Desc.privatised
     | None -> ());
    (* reductions: base value combined with every worker's partial
       (DOACROSS carried them through the context chain instead) *)
    if doacross_frac <> None then ignore red_bases;
    List.iter
      (fun (loc, op, base) ->
         let combined =
           List.fold_left
             (fun acc (_, ps) ->
                List.fold_left
                  (fun acc (loc', op', p) ->
                     if loc' = loc && op' = op then redop_combine op acc p
                     else acc)
                  acc ps)
             base !partials
         in
         write_loc main loc combined)
      (if doacross_frac = None then red_bases else []);
    (* the IV's architectural exit value *)
    let exit_iv =
      match cond with
      | Cond.Ne -> bound
      | _ -> Int64.add init (Int64.mul (Int64.of_int trips) step)
    in
    write_loc main desc.Desc.iv exit_iv;
    let finish_cost =
      Cost.loop_finish_base + (threads * Cost.loop_finish_per_thread)
    in
    main.Machine.cycles <- main.Machine.cycles + finish_cost;
    stats.Dbm.init_finish_cycles <- stats.Dbm.init_finish_cycles + finish_cost;
    t.current_loop <- -1;
    (match obs t with
     | Some o when Obs.tracing o ->
       Obs.emit o ~tid:0 ~ts:main.Machine.cycles
         (Obs.Loop_finish { loop_id = desc.Desc.loop_id })
     | _ -> ());
    match desc.Desc.exit_addrs with
    | e :: _ -> `Parallel e
    | [] -> `Sequential
  end

(* ------------------------------------------------------------------ *)
(* Loop fission (extension)                                            *)
(* ------------------------------------------------------------------ *)

(* Execute a fissioned loop: each sub-loop group runs as one
   consecutive full-range loop instance over the original body, with
   the other groups' instructions elided from its code caches. The
   DOALL product uses every thread; the sequential residue runs on
   one. Phases share no dependence (groups are dependence-disjoint by
   construction), so each phase's final context threads into the next
   through the ordinary last-worker context copy. *)
let run_fission t (main : Machine.t) (fd : Desc.fission_desc) =
  let desc = fd.Desc.fd_loop in
  let lid = desc.Desc.loop_id in
  let env = rexpr_env main in
  let init = Rexpr.eval env desc.Desc.iv_init in
  let bound = Rexpr.eval env desc.Desc.iv_bound in
  let all_insns =
    List.concat_map (fun (g : Desc.fission_group) -> g.Desc.fg_insns)
      fd.Desc.fd_groups
  in
  let result = ref `Sequential in
  let aborted = ref false in
  List.iteri
    (fun i (g : Desc.fission_group) ->
       if not !aborted then begin
         let caches =
           match Hashtbl.find_opt t.fission_caches (lid, i) with
           | Some c -> c
           | None ->
             let others =
               List.filter
                 (fun a -> not (List.mem a g.Desc.fg_insns))
                 all_insns
             in
             let skip a = List.mem a others in
             let c =
               Array.init t.config.threads (fun w ->
                   Dbm.new_cache ~skip (Dbm.Worker w))
             in
             Hashtbl.replace t.fission_caches (lid, i) c;
             c
         in
         let max_threads = if g.Desc.fg_parallel then None else Some 1 in
         t.fission_phases <- t.fission_phases + 1;
         match
           run_parallel_loop ~caches ?max_threads ~iv_range:(init, bound) t
             main desc ~bound_adjust:desc.Desc.iv_bound_adjust
         with
         | `Sequential ->
           (* only a degenerate trip count lands here, and it does so
              on the first phase — nothing has executed yet, so the
              whole invocation falls back to sequential execution *)
           result := `Sequential;
           aborted := true
         | `Parallel e -> result := `Parallel e
       end)
    fd.Desc.fd_groups;
  !result

(* ------------------------------------------------------------------ *)
(* STM boundaries (§II-E2, §II-E3)                                     *)
(* ------------------------------------------------------------------ *)

let tx_start t w (ctx : Machine.t) call_addr =
  if Hashtbl.mem t.skip_tx (w, call_addr) then begin
    (* re-execution after an abort: run non-speculatively, as the
       oldest thread would *)
    Hashtbl.remove t.skip_tx (w, call_addr);
    Dbm.Continue
  end
  else begin
    ctx.Machine.cycles <- ctx.Machine.cycles + Cost.stm_checkpoint;
    let txn = Machine.start_txn ctx in
    ignore txn;
    (match obs t with
     | Some o when Obs.tracing o ->
       Obs.emit o ~tid:(w + 1) ~ts:ctx.Machine.cycles
         (Obs.Tx_started { addr = call_addr })
     | _ -> ());
    Dbm.Continue
  end

let tx_finish t w (ctx : Machine.t) =
  match ctx.Machine.txn with
  | None -> Dbm.Continue
  | Some txn ->
    let stats = t.dbm.Dbm.stats in
    let n_access =
      Hashtbl.length txn.Machine.treads + Hashtbl.length txn.Machine.twrites
    in
    if n_access > stm_access_limit then t.stm_overflows <- t.stm_overflows + 1;
    (* value-based validation of every buffered read *)
    let valid =
      Hashtbl.fold
        (fun addr v acc ->
           acc
           && (Hashtbl.mem txn.Machine.twrites addr
               || Int64.equal (Memory.read_i64 ctx.Machine.mem addr) v))
        txn.Machine.treads true
    in
    ctx.Machine.cycles <-
      ctx.Machine.cycles
      + (Cost.stm_validate_per_entry * Hashtbl.length txn.Machine.treads);
    if valid then begin
      (* commit buffered stores in thread order *)
      Hashtbl.iter
        (fun addr v -> Memory.write_i64 ctx.Machine.mem addr v)
        txn.Machine.twrites;
      ctx.Machine.cycles <-
        ctx.Machine.cycles
        + (Cost.stm_commit_per_entry * Hashtbl.length txn.Machine.twrites);
      stats.Dbm.stm_commits <- stats.Dbm.stm_commits + 1;
      (match obs t with
       | Some o when Obs.tracing o ->
         Obs.emit o ~tid:(w + 1) ~ts:ctx.Machine.cycles
           (Obs.Tx_committed
              { reads = Hashtbl.length txn.Machine.treads;
                writes = Hashtbl.length txn.Machine.twrites })
       | _ -> ());
      Machine.end_txn ctx;
      Dbm.Continue
    end
    else begin
      (* abort: roll back to the checkpoint and re-execute the call
         without speculation *)
      stats.Dbm.stm_aborts <- stats.Dbm.stm_aborts + 1;
      ctx.Machine.cycles <- ctx.Machine.cycles + Cost.stm_abort;
      let resume = txn.Machine.checkpoint_rip in
      Machine.rollback ctx txn;
      Hashtbl.replace t.skip_tx (w, resume) ();
      (match obs t with
       | Some o when Obs.tracing o ->
         Obs.emit o ~tid:(w + 1) ~ts:ctx.Machine.cycles
           (Obs.Tx_aborted { addr = resume })
       | _ -> ());
      Dbm.Divert resume
    end

(* ------------------------------------------------------------------ *)
(* The event handler                                                   *)
(* ------------------------------------------------------------------ *)

let handler t (_dbm : Dbm.t) kind (ctx : Machine.t) (r : Rule.t) : Dbm.action =
  let lid = Int64.to_int r.Rule.aux in
  let in_seq lid = try Hashtbl.find t.loop_in_seq lid with Not_found -> false in
  match kind, r.Rule.id with
  | Dbm.Main, Rule.MEM_BOUNDS_CHECK -> begin
      match t.dbm.Dbm.schedule with
      | None -> Dbm.Continue
      | Some _ when in_seq lid -> Dbm.Continue
      | Some _
        when (match t.adapt with
              | Some g -> Adapt.skip_check g lid
              | None -> false) ->
        (* demoted (or sampling) loop: don't pay for a check whose
           answer the governor will override *)
        Dbm.Continue
      | Some sched ->
        let cd = Schedule.check_desc sched r.Rule.data in
        let c_t0 = ctx.Machine.cycles in
        let ok = eval_check t ctx cd in
        let check_cost = ctx.Machine.cycles - c_t0 in
        let n, cyc =
          try Hashtbl.find t.inv_checks lid with Not_found -> (0, 0)
        in
        Hashtbl.replace t.inv_checks lid (n + 1, cyc + check_cost);
        (match t.adapt with
         | Some g -> Adapt.record_check g lid ~ok ~cycles:check_cost
         | None -> ());
        (match obs t with
         | Some o ->
           Obs.incr o (if ok then "rt.checks_passed" else "rt.checks_failed");
           if Obs.tracing o then begin
             let pairs = Desc.check_pairs cd in
             Obs.emit o ~tid:0 ~ts:ctx.Machine.cycles
               (if ok then Obs.Check_passed { loop_id = lid; pairs }
                else Obs.Check_failed { loop_id = lid; pairs })
           end
         | None -> ());
        let was_seq =
          try Hashtbl.find t.loop_sequential lid with Not_found -> false
        in
        Hashtbl.replace t.loop_sequential lid (not ok);
        (* §II-E1: if the loop was already modified, flush and reload *)
        if (not ok) && not was_seq
           && (try Hashtbl.find t.loop_invocations lid > 0 with Not_found -> false)
        then begin
          Array.iter
            (Dbm.flush_cache ~now:ctx.Machine.cycles t.dbm)
            t.worker_caches;
          ctx.Machine.cycles <- ctx.Machine.cycles + Cost.cache_flush
        end;
        Dbm.Continue
    end
  | Dbm.Main, (Rule.LOOP_INIT | Rule.LOOP_FISSION) -> begin
      (* a fresh invocation: drop any stale skip-speculation entries a
         previous invocation's aborts left behind. LOOP_FISSION shares
         this whole path — its descriptor begins with an ordinary loop
         descriptor, so [Schedule.loop_desc] decodes the governed-loop
         half, and only the execution call differs. *)
      Hashtbl.reset t.skip_tx;
      match t.dbm.Dbm.schedule with
      | None -> Dbm.Continue
      | Some _ when in_seq lid -> Dbm.Continue
      | Some sched ->
        (* consume-and-clear this invocation's check stats (the check
           rule fired just before us); without the clear, a later
           invocation would inherit them — same leak as [skip_tx] *)
        let inv_n, inv_check_cycles =
          try Hashtbl.find t.inv_checks lid with Not_found -> (0, 0)
        in
        if inv_n > t.max_inv_checks then t.max_inv_checks <- inv_n;
        Hashtbl.remove t.inv_checks lid;
        let decision =
          match t.adapt with
          | Some g -> Adapt.decide g lid ~now:ctx.Machine.cycles
          | None -> Adapt.Go_parallel
        in
        match decision with
        | Adapt.Go_sequential ->
          (* demoted: run serially without ever evaluating the check *)
          Hashtbl.replace t.loop_in_seq lid true;
          Hashtbl.replace t.gov_seq lid ctx.Machine.cycles;
          Dbm.Continue
        | Adapt.Go_sample ->
          (* training-free: serial invocation under shadow memory *)
          Hashtbl.replace t.loop_in_seq lid true;
          Hashtbl.replace t.gov_seq lid ctx.Machine.cycles;
          (match t.adapt with
           | Some g ->
             let desc = Schedule.loop_desc sched r.Rule.data in
             let env = rexpr_env ctx in
             (* locations the schedule privatises or reduces are not
                cross-iteration dependences — the rewrite already
                handles them *)
             let exclude =
               List.map
                 (fun (e, _) -> Int64.to_int (Rexpr.eval env e))
                 desc.Desc.privatised
               @ List.filter_map
                   (fun (loc, _) ->
                      match loc with Desc.Labs a -> Some a | _ -> None)
                   desc.Desc.reductions
             in
             Adapt.sample_begin g lid ctx
               ~read_iv:(fun () -> read_loc ctx desc.Desc.iv)
               ~exclude
           | None -> ());
          Dbm.Continue
        | Adapt.Go_parallel | Adapt.Go_probe ->
          if (try Hashtbl.find t.loop_sequential lid with Not_found -> false)
          then begin
            (* the check failed: execute this invocation serially, and
               do not re-fire at every header execution *)
            Hashtbl.replace t.loop_in_seq lid true;
            (match obs t with
             | Some o ->
               Obs.incr o "rt.seq_fallbacks";
               if Obs.tracing o then
                 Obs.emit o ~tid:0 ~ts:ctx.Machine.cycles
                   (Obs.Seq_fallback { loop_id = lid })
             | None -> ());
            (match t.adapt with
             | Some g -> Adapt.record_fallback g lid ~now:ctx.Machine.cycles
             | None -> ());
            Dbm.Continue
          end
          else begin
            let desc = Schedule.loop_desc sched r.Rule.data in
            Hashtbl.replace t.loop_invocations lid
              (1 + (try Hashtbl.find t.loop_invocations lid with Not_found -> 0));
            let stats = t.dbm.Dbm.stats in
            let commits0 = stats.Dbm.stm_commits in
            let aborts0 = stats.Dbm.stm_aborts in
            let inv_t0 = ctx.Machine.cycles in
            let outcome =
              match r.Rule.id with
              | Rule.LOOP_FISSION ->
                let fd = Schedule.fission_desc sched r.Rule.data in
                (match obs t with
                 | Some o -> Obs.incr o "rt.fission_invocations"
                 | None -> ());
                run_fission t ctx fd
              | _ ->
                run_parallel_loop t ctx desc
                  ~bound_adjust:desc.Desc.iv_bound_adjust
            in
            match outcome with
            | `Sequential ->
              Hashtbl.replace t.loop_in_seq lid true;
              Dbm.Continue
            | `Parallel exit_addr ->
              (match t.adapt with
               | Some g ->
                 Adapt.record_parallel g lid ~now:ctx.Machine.cycles
                   ~work:t.last_sum_cycles
                   ~cost:(ctx.Machine.cycles - inv_t0 + inv_check_cycles)
                   ~commits:(stats.Dbm.stm_commits - commits0)
                   ~aborts:(stats.Dbm.stm_aborts - aborts0)
               | None -> ());
              Dbm.Divert exit_addr
          end
    end
  | Dbm.Main, Rule.LOOP_FINISH ->
    (* end of a sequential-fallback invocation: re-arm the checks *)
    (match t.adapt, Hashtbl.find_opt t.gov_seq lid with
     | Some g, Some seq_t0 ->
       Hashtbl.remove t.gov_seq lid;
       (match Adapt.state g lid with
        | Some Adapt.Sampling ->
          Adapt.sample_end g lid ctx ~now:ctx.Machine.cycles
        | _ -> Adapt.record_seq g lid ~cycles:(ctx.Machine.cycles - seq_t0))
     | _ -> ());
    Hashtbl.remove t.loop_in_seq lid;
    Hashtbl.remove t.loop_sequential lid;
    Dbm.Continue
  | Dbm.Main, Rule.MEM_SPILL_REG ->
    ctx.Machine.cycles <- ctx.Machine.cycles + 8;
    Dbm.Continue
  | Dbm.Worker _, (Rule.THREAD_YIELD | Rule.LOOP_FINISH) ->
    (* only this loop's own yield stops the thread: a worker may pass
       through another loop's exit block (e.g. an unrolled loop's
       remainder shares it) *)
    if lid = t.current_loop then Dbm.Stop_thread else Dbm.Continue
  | Dbm.Worker _, Rule.MEM_RECOVER_REG -> Dbm.Continue
  | Dbm.Worker w, Rule.TX_START -> tx_start t w ctx ctx.Machine.rip
  | Dbm.Worker w, Rule.TX_FINISH -> tx_finish t w ctx
  | _, _ -> Dbm.Continue

let install t = t.dbm.Dbm.on_event <- (fun dbm kind ctx r -> handler t dbm kind ctx r)

(** Mirror runtime state into the metrics registry (per-loop invocation
    counts, STM overflow count) and publish the DBM's stats alongside.
    Done once at the end of a run, never on hot paths. *)
let publish_metrics t o =
  Dbm.publish_metrics t.dbm o;
  Hashtbl.iter
    (fun lid n -> Obs.set o (Printf.sprintf "loop.%d.invocations" lid) n)
    t.loop_invocations;
  Obs.set o "rt.stm_overflows" t.stm_overflows;
  Obs.set o "rt.fission_phases" t.fission_phases;
  (* most check evaluations ever attributed to one invocation: > 1
     would mean the per-invocation stats leaked across LOOP_INITs *)
  Obs.set o "rt.max_inv_checks" t.max_inv_checks;
  match t.adapt with
  | Some g -> Adapt.publish_metrics g o
  | None -> ()
