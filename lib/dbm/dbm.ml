(** The dynamic binary modifier (Fig. 2(b)): a DynamoRIO-style code
    cache executing translated basic blocks, consulting the rewrite
    schedule's rule hash table before each block is emitted.

    Transformation rules (MEM_PRIVATISE, LOOP_UPDATE_BOUND,
    MEM_MAIN_STACK) edit instructions during translation; event rules
    (LOOP_INIT, checks, profiling, TX boundaries...) attach to slots
    and fire through the installed event handler at execution time.
    Rules at the same address apply in schedule order (§II-A2). *)

open Janus_vx
open Janus_vm
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Obs = Janus_obs.Obs

(** What kind of thread a cache belongs to: the main thread receives
    only event rules; workers also receive the parallel transformation
    rules, specialising their private code caches (§II-E). *)
type thread_kind = Main | Worker of int

type slot = {
  s_insn : Insn.t;      (* possibly rewritten instruction *)
  s_addr : int;         (* original application address *)
  s_len : int;          (* original encoded length *)
  s_cost : int;         (* Cost.of_insn s_insn, precomputed at translation *)
  s_events : Rule.t list;
}

(* How a fragment execution ends. On [Next], [ctx.rip] holds the
   application address control continues at. *)
type outcome =
  | Next
  | Halted
  | Yielded           (* an event handler stopped the thread *)

(* A basic block runs its slots through the slot loop; a trace runs as
   one chain of compiled slots and keeps no slot array. *)
type code = Block of slot array | Trace of (Machine.t -> outcome)

type fragment = {
  f_start : int;
  f_code : code;
  f_ends_indirect : bool; (* last slot is an indirect jmp/call or a ret *)
  mutable f_execs : int;
  mutable f_linked : bool;
}

type stats = {
  mutable translated_insns : int;
  mutable fragments_built : int;
  mutable traces_built : int;
  mutable dispatches : int;
  mutable translate_cycles : int;   (* total, all threads *)
  mutable translate_cycles_main : int;  (* main thread only *)
  mutable check_cycles : int;
  mutable init_finish_cycles : int;
  mutable parallel_cycles : int;
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable cache_flushes : int;
}

let new_stats () =
  { translated_insns = 0; fragments_built = 0; traces_built = 0;
    dispatches = 0; translate_cycles = 0; translate_cycles_main = 0;
    check_cycles = 0;
    init_finish_cycles = 0; parallel_cycles = 0; stm_commits = 0;
    stm_aborts = 0; cache_flushes = 0 }

(** Outcome of an event handler. *)
type action =
  | Continue           (* keep executing the slot *)
  | Divert of int      (* transfer control to an application address *)
  | Stop_thread        (* leave the execution loop (thread yield) *)

(* the rules one thread kind applies at one address *)
type site = {
  r_all : Rule.t list;     (* in schedule order *)
  r_events : Rule.t list;  (* the event rules among them *)
}

type t = {
  prog : Program.t;
  main_sites : site Machine.Int_table.t;    (* the rule hash table, per kind *)
  worker_sites : site Machine.Int_table.t;
  schedule : Schedule.t option;
  stats : stats;
  promote_threshold : int;    (* fragment executions before trace promotion *)
  mutable obs : Obs.t option;
  mutable on_event : t -> thread_kind -> Machine.t -> Rule.t -> action;
  mutable walked : slot array;  (* the translation walk's scratch slots *)
}

(** A per-thread code cache. *)
type cache = {
  kind : thread_kind;
  frags : fragment Machine.Int_table.t;
  mutable last_indirect : bool;   (* previous fragment ended indirectly *)
  skip : (int -> bool) option;
      (* loop fission: addresses this cache's fragments elide (the other
         sub-loops' instructions); control flow is never elided *)
}

let is_transform (r : Rule.t) =
  match r.Rule.id with
  | Rule.LOOP_UPDATE_BOUND | Rule.MEM_PRIVATISE | Rule.MEM_MAIN_STACK
  | Rule.MEM_PREFETCH -> true
  | _ -> false

(* which rules apply to which thread kind *)
let applies kind (r : Rule.t) =
  match kind, r.Rule.id with
  | Main, (Rule.LOOP_UPDATE_BOUND | Rule.MEM_PRIVATISE | Rule.MEM_MAIN_STACK
          | Rule.THREAD_YIELD | Rule.TX_START | Rule.TX_FINISH) -> false
  | Main, _ -> true
  | Worker _, (Rule.LOOP_INIT | Rule.LOOP_FISSION | Rule.MEM_BOUNDS_CHECK
              | Rule.MEM_SPILL_REG | Rule.THREAD_SCHEDULE) -> false
  | Worker _, _ -> true

(* One table per thread kind, split once here so the translator looks
   an address up once and filters nothing. An address no rule of the
   kind applies at has no entry. *)
let sites_of index kind =
  let tbl = Machine.Int_table.create 64 in
  Hashtbl.iter
    (fun a rs ->
       match List.filter (applies kind) rs with
       | [] -> ()
       | r_all ->
         Machine.Int_table.replace tbl a
           { r_all;
             r_events = List.filter (fun r -> not (is_transform r)) r_all })
    index;
  tbl

let no_site = { r_all = []; r_events = [] }

let no_slot =
  { s_insn = Insn.Nop; s_addr = 0; s_len = 0; s_cost = 0; s_events = [] }

let create ?schedule ?obs ?(promote_threshold = Cost.trace_head_threshold)
    prog =
  let index =
    match schedule with
    | Some s -> Schedule.index s
    | None -> Hashtbl.create 1
  in
  {
    prog;
    main_sites = sites_of index Main;
    worker_sites = sites_of index (Worker 0);
    schedule;
    stats = new_stats ();
    promote_threshold;
    obs;
    on_event = (fun _ _ _ _ -> Continue);
    walked = Array.make 64 no_slot;
  }

let new_cache ?skip kind =
  { kind; frags = Machine.Int_table.create 256; last_indirect = false; skip }

(* trace-event thread ids: 0 = main, w+1 = worker w *)
let tid_of = function Main -> 0 | Worker w -> w + 1

let flush_cache ?(now = 0) t (c : cache) =
  Machine.Int_table.reset c.frags;
  t.stats.cache_flushes <- t.stats.cache_flushes + 1;
  match t.obs with
  | Some o when Obs.tracing o ->
    Obs.emit o ~tid:(tid_of c.kind) ~ts:now Obs.Cache_flushed
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Transformation handlers (Fig. 2(b))                                 *)
(* ------------------------------------------------------------------ *)

let tls_slot_operand slot =
  Operand.Mem (Operand.mem_base ~disp:(8 * slot) Reg.TLS)

(* replace the unique memory operand of an instruction *)
let replace_mem_operand insn new_mem =
  let swap (o : Operand.t) =
    match o with Operand.Mem _ -> Operand.Mem new_mem | _ -> o
  in
  let swapf (o : Operand.fop) =
    match o with Operand.Fmem _ -> Operand.Fmem new_mem | _ -> o
  in
  match insn with
  | Insn.Mov (d, s) -> Insn.Mov (swap d, swap s)
  | Insn.Alu (op, d, s) -> Insn.Alu (op, swap d, swap s)
  | Insn.Neg o -> Insn.Neg (swap o)
  | Insn.Not o -> Insn.Not (swap o)
  | Insn.Idiv o -> Insn.Idiv (swap o)
  | Insn.Cmp (a, b) -> Insn.Cmp (swap a, swap b)
  | Insn.Test (a, b) -> Insn.Test (swap a, swap b)
  | Insn.Push o -> Insn.Push (swap o)
  | Insn.Pop o -> Insn.Pop (swap o)
  | Insn.Cmov (c, r, s) -> Insn.Cmov (c, r, swap s)
  | Insn.Fmov (w, d, s) -> Insn.Fmov (w, swapf d, swapf s)
  | Insn.Fbin (w, op, d, s) -> Insn.Fbin (w, op, d, swapf s)
  | Insn.Fsqrt (w, d, s) -> Insn.Fsqrt (w, d, swapf s)
  | Insn.Fbcast (w, d, s) -> Insn.Fbcast (w, d, swapf s)
  | Insn.Fcmp (a, b) -> Insn.Fcmp (a, swapf b)
  | Insn.Cvtsi2sd (d, s) -> Insn.Cvtsi2sd (d, swap s)
  | Insn.Cvtsd2si (d, s) -> Insn.Cvtsd2si (d, swapf s)
  | i -> i

(* LOOP_UPDATE_BOUND: the bound operand becomes a TLS load, so each
   thread compares against its own chunk end (bound slot = TLS[0]) *)
let apply_update_bound (r : Rule.t) insn =
  match insn with
  | Insn.Cmp (a, b) ->
    let bound = tls_slot_operand 0 in
    if Int64.equal r.Rule.data 0L then Insn.Cmp (bound, b)
    else Insn.Cmp (a, bound)
  | i -> i

(* MEM_PRIVATISE: redirect the memory operand to private storage *)
let apply_privatise (r : Rule.t) insn =
  let slot = Int64.to_int r.Rule.data in
  replace_mem_operand insn (Operand.mem_base ~disp:(8 * slot) Reg.TLS)

(* MEM_MAIN_STACK: redirect a read-only stack access to the shared main
   stack (base register swapped for SHARED, which the runtime points at
   the main thread's frame) *)
let apply_main_stack (_r : Rule.t) insn =
  let swap_base (m : Operand.mem) = { m with Operand.base = Some Reg.SHARED } in
  let swap (o : Operand.t) =
    match o with Operand.Mem m -> Operand.Mem (swap_base m) | _ -> o
  in
  let swapf (o : Operand.fop) =
    match o with Operand.Fmem m -> Operand.Fmem (swap_base m) | _ -> o
  in
  match insn with
  | Insn.Mov (d, s) -> Insn.Mov (d, swap s)
  | Insn.Alu (op, d, s) -> Insn.Alu (op, d, swap s)
  | Insn.Cmp (a, b) -> Insn.Cmp (swap a, swap b)
  | Insn.Fmov (w, d, s) -> Insn.Fmov (w, d, swapf s)
  | Insn.Fbin (w, op, d, s) -> Insn.Fbin (w, op, d, swapf s)
  | Insn.Fcmp (a, b) -> Insn.Fcmp (a, swapf b)
  | i -> i

let apply_transform (r : Rule.t) insn =
  match r.Rule.id with
  | Rule.LOOP_UPDATE_BOUND -> apply_update_bound r insn
  | Rule.MEM_PRIVATISE -> apply_privatise r insn
  | Rule.MEM_MAIN_STACK -> apply_main_stack r insn
  | _ -> insn

(* MEM_PREFETCH: the prefetch target is the instruction's memory
   operand displaced [data] bytes ahead (its stride direction) *)
let prefetch_mem insn dist =
  match List.map fst (Insn.mems_read insn @ Insn.mems_written insn) with
  | m :: _ -> Some { m with Operand.disp = m.Operand.disp + dist }
  | [] -> None

let slot insn addr len events =
  { s_insn = insn; s_addr = addr; s_len = len; s_cost = Cost.of_insn insn;
    s_events = events }

(* zero-length slot holding an inserted prefetch hint *)
let prefetch_slots (rs : Rule.t list) insn addr =
  List.filter_map
    (fun (r : Rule.t) ->
       if r.Rule.id = Rule.MEM_PREFETCH then
         Option.map
           (fun pm -> slot (Insn.Prefetch pm) addr 0 [])
           (prefetch_mem insn (Int64.to_int r.Rule.data))
       else None)
    rs

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

(* does a fragment of the first [n] of these slots exit through an
   indirect transfer? (the next dispatch then pays the indirect cost) *)
let ends_indirect (slots : slot array) n =
  n > 0
  &&
  match slots.(n - 1).s_insn with
  | Insn.Jmp (Insn.Indirect _) | Insn.Call (Insn.Indirect _) | Insn.Ret -> true
  | _ -> false

(* does this cache's fission filter elide [insn] at [a]? control flow
   is never elided — fission replicates it into every sub-loop *)
let elided (cache : cache) a insn =
  match cache.skip with
  | Some f -> f a && not (Insn.is_control_flow insn)
  | None -> false

(* does [insn] end a basic block at the exit syscall? *)
let is_exit = function
  | Insn.Syscall n -> n = Insn.sys_exit
  | _ -> false

(* Walk the code at [start] into [t.walked]: transformation rules
   rewrite each instruction, event rules attach to it, the fission
   filter drops it and prefetch hints go before it. A basic block ends
   at control flow or [sys_exit]. A trace ([trace]) runs on past
   [sys_exit] and through each event-free direct jump, eliding the jump
   (DynamoRIO's trace optimisation), across at most 8 further blocks,
   each entered once. The decoded code and the kind's rule table are
   read in place, so an instruction with no rule costs its slot and
   nothing else. Returns the number of slots and the number of
   instructions walked, elided ones included. *)
let walk t (cache : cache) ~trace start =
  let sites =
    match cache.kind with Main -> t.main_sites | Worker _ -> t.worker_sites
  in
  let n = ref 0 and count = ref 0 and seen = ref [] in
  let push s =
    if !n = Array.length t.walked then begin
      let a = Array.make (2 * !n) no_slot in
      Array.blit t.walked 0 a 0 !n;
      t.walked <- a
    end;
    Array.unsafe_set t.walked !n s;
    incr n
  in
  let rec block a blocks =
    (* [memq]: an int compare, not a polymorphic one *)
    if blocks <= 8 && not (List.memq a !seen) then begin
      seen := a :: !seen;
      insns a blocks
    end
  and insns a blocks =
    let code = Program.code_at t.prog a in
    let len = Code.len code a in
    if len > 0 then begin
      incr count;
      let off = a - code.Code.base in
      let insn = Array.unsafe_get code.Code.insns off in
      let { r_all = rs; r_events = events } =
        match Machine.Int_table.find_opt sites a with
        | None -> no_site
        | Some site -> site
      in
      match insn with
      | Insn.Jmp (Insn.Direct target) when trace && events == [] ->
        block target (blocks + 1)
      | _ ->
        if not (elided cache a insn) then begin
          if rs == [] then
            push
              { s_insn = insn; s_addr = a; s_len = len;
                s_cost = Char.code (Bytes.unsafe_get code.Code.costs off);
                s_events = [] }
          else begin
            let insn' =
              List.fold_left (fun i r -> apply_transform r i) insn rs
            in
            List.iter push (prefetch_slots rs insn' a);
            push (slot insn' a len events)
          end
        end
        else if events != [] then
          (* an elided instruction is dropped outright — control flow is
             never elided, so fragment exits are unaffected and the
             elision really is free; attached events keep a 1-cycle Nop
             slot as their anchor *)
          push (slot Insn.Nop a len events);
        if not (Insn.is_control_flow insn || ((not trace) && is_exit insn))
        then insns (a + len) blocks
    end
  in
  block start 0;
  (!n, !count)

(* ------------------------------------------------------------------ *)
(* Execution tiers                                                     *)
(* ------------------------------------------------------------------ *)

(* A basic block runs through the slot loop, which matches on each
   instruction at every execution ([Semantics.exec_costed]); compiling
   it would cost more than most blocks ever run, as many run a handful
   of times before promotion or not again. A trace, built only once its
   head is hot, runs as a chain of closures, one per slot, specialised
   when the trace is built ([Semantics.compile]). Both tiers leave the
   same registers, memory, cycles, counters and events. *)

(* fire a slot's events in schedule order, stopping at the first that
   diverts or yields *)
let rec fire t (cache : cache) ctx slot = function
  | [] -> Continue
  | r :: tl -> begin
      (match t.obs with
       | Some o when Obs.tracing o ->
         Obs.emit o ~tid:(tid_of cache.kind) ~ts:ctx.Machine.cycles
           (Obs.Rule_fired
              { rule = Rule.id_name r.Rule.id; addr = slot.s_addr })
       | _ -> ());
      match t.on_event t cache.kind ctx r with
      | Continue -> fire t cache ctx slot tl
      | (Divert _ | Stop_thread) as a -> a
    end

(* Run [slots] from index [i]. Top-level, so a dispatch allocates no
   closure. *)
let rec exec_slots t cache ctx slots i =
  if i >= Array.length slots then begin
    (* fell off the end: block ended by running into a leader *)
    let last = Array.unsafe_get slots (Array.length slots - 1) in
    ctx.Machine.rip <- last.s_addr + last.s_len;
    Next
  end
  else begin
    let slot = Array.unsafe_get slots i in
    ctx.Machine.rip <- slot.s_addr;
    match
      if slot.s_events == [] then Continue
      else fire t cache ctx slot slot.s_events
    with
    | Divert a ->
      ctx.Machine.rip <- a;
      Next
    | Stop_thread -> Yielded
    | Continue -> begin
        match
          Semantics.exec_costed ctx slot.s_insn ~len:slot.s_len
            ~cost:slot.s_cost
        with
        | Semantics.Fall -> exec_slots t cache ctx slots (i + 1)
        | Semantics.Jump -> Next
        | Semantics.Stop -> Halted
      end
  end

(* An event-bearing slot of a trace: its rules fire and then it runs,
   as in [exec_slots]. *)
let fired t cache slot next ctx =
  ctx.Machine.rip <- slot.s_addr;
  match fire t cache ctx slot slot.s_events with
  | Divert a ->
    ctx.Machine.rip <- a;
    Next
  | Stop_thread -> Yielded
  | Continue -> begin
      match
        Semantics.exec_costed ctx slot.s_insn ~len:slot.s_len ~cost:slot.s_cost
      with
      | Semantics.Fall -> next ctx
      | Semantics.Jump -> Next
      | Semantics.Stop -> Halted
    end

(* The first [n] (at least one) of [slots] as one chain of closures,
   built back to front: each runs its slot as [exec_slots] would and
   tail-calls the next, and running off the end leaves [ctx.rip] after
   the last slot. *)
let compile t cache slots n =
  let last = slots.(n - 1) in
  let fallthrough = last.s_addr + last.s_len in
  let chain =
    ref (fun ctx ->
        ctx.Machine.rip <- fallthrough;
        Next)
  in
  for i = n - 1 downto 0 do
    let s = slots.(i) in
    chain :=
      if s.s_events == [] then
        Semantics.compile s.s_insn ~addr:s.s_addr ~len:s.s_len
          ~cost:s.s_cost ~jumped:Next ~stopped:Halted !chain
      else fired t cache s !chain
  done;
  !chain

(* ------------------------------------------------------------------ *)
(* Fragments                                                           *)
(* ------------------------------------------------------------------ *)

(* Build the fragment at [addr] (a trace if [trace]) into [cache],
   charging its translation to [ctx]. A basic block counts in
   [translated_insns] and [fragments_built] and announces a resolved
   library entry; a trace counts in [traces_built], keeps the [execs]
   of the fragment it replaces, starts linked and is compiled. *)
let build t (cache : cache) ctx ~trace ~execs addr =
  let n, count = walk t cache ~trace addr in
  let cost = Cost.fragment_setup + (Cost.translate_per_insn * count) in
  let t0 = ctx.Machine.cycles in
  ctx.Machine.cycles <- t0 + cost;
  let s = t.stats in
  s.translate_cycles <- s.translate_cycles + cost;
  (match cache.kind with
   | Main -> s.translate_cycles_main <- s.translate_cycles_main + cost
   | Worker _ -> ());
  if trace then s.traces_built <- s.traces_built + 1
  else begin
    s.translated_insns <- s.translated_insns + count;
    s.fragments_built <- s.fragments_built + 1
  end;
  (match t.obs with
   | Some o when Obs.tracing o ->
     let tid = tid_of cache.kind in
     Obs.emit o ~tid ~ts:t0 ~dur:cost
       (Obs.Block_translated { addr; insns = count; trace });
     (match Program.plt_name t.prog addr with
      | Some name when not trace ->
        Obs.emit o ~tid ~ts:t0 (Obs.Lib_resolved { name; addr })
      | _ -> ())
   | _ -> ());
  let code =
    if trace && n > 0 then Trace (compile t cache t.walked n)
    else Block (Array.sub t.walked 0 n)
  in
  let frag =
    { f_start = addr; f_code = code;
      f_ends_indirect = ends_indirect t.walked n; f_execs = execs;
      f_linked = trace }
  in
  Machine.Int_table.replace cache.frags addr frag;
  frag

let translate t cache ctx addr = build t cache ctx ~trace:false ~execs:0 addr

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad_pc of int

let exec_fragment t cache ctx frag =
  frag.f_execs <- frag.f_execs + 1;
  match frag.f_code with
  | Block slots ->
    if Array.length slots = 0 then raise (Bad_pc frag.f_start);
    exec_slots t cache ctx slots 0
  | Trace run -> run ctx

(* The fragment to run at [addr], charging the dispatch: translated on
   a miss, promoted to a trace once hot. *)
let dispatch t (cache : cache) ctx addr =
  match Machine.Int_table.find cache.frags addr with
  | f ->
    t.stats.dispatches <- t.stats.dispatches + 1;
    (* dispatch cost: indirect transitions always pay; direct ones pay
       until the fragment is linked *)
    if cache.last_indirect then
      ctx.Machine.cycles <- ctx.Machine.cycles + Cost.dispatch_indirect
    else if not f.f_linked then begin
      ctx.Machine.cycles <- ctx.Machine.cycles + Cost.dispatch_unlinked;
      if f.f_execs >= 1 then begin
        f.f_linked <- true;
        match t.obs with
        | Some o when Obs.tracing o ->
          Obs.emit o ~tid:(tid_of cache.kind) ~ts:ctx.Machine.cycles
            (Obs.Fragment_linked { addr })
        | _ -> ()
      end
    end;
    (match f.f_code with
     | Block _ when f.f_execs >= t.promote_threshold ->
       build t cache ctx ~trace:true ~execs:f.f_execs f.f_start
     | Block _ | Trace _ -> f)
  | exception Not_found ->
    if Code.len (Program.code_at t.prog addr) addr = 0 then
      raise (Bad_pc addr);
    (* a context switch into the code cache happens on this path too:
       the dispatch census must include every fragment's first
       (translate-path) execution. Only the counter moves here — the
       cycle model already charges this transition as part of the
       translation cost. *)
    t.stats.dispatches <- t.stats.dispatches + 1;
    translate t cache ctx addr

(** Run [ctx] under the DBM until the program halts, an event yields
    the thread, or [fuel] runs out (reported as a typed result carrying
    the application address being dispatched, not an exception). *)
let run ?(fuel = 100_000_000) t (cache : cache) ctx =
  let rec loop remaining =
    if remaining <= 0 then `Out_of_fuel ctx.Machine.rip
    else begin
      let addr = ctx.Machine.rip in
      (* intrinsic intercepted exactly as in native execution: one
         compare against the PLT slot address resolved at load *)
      if addr = t.prog.Program.par_for_addr then begin
        Run.par_for t.prog ctx ~fuel:1_000_000_000;
        ctx.Machine.rip <- Int64.to_int (Semantics.pop ctx);
        loop (remaining - 1)
      end
      else begin
        let frag = dispatch t cache ctx addr in
        match exec_fragment t cache ctx frag with
        | Next ->
          (* the next dispatch pays for an indirect exit *)
          cache.last_indirect <- frag.f_ends_indirect;
          loop (remaining - 1)
        | Halted -> `Halted
        | Yielded -> `Yielded
      end
    end
  in
  loop fuel

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(** Mirror the aggregate stats into the metrics registry. Done once at
    publish time rather than on hot paths, so enabling metrics never
    perturbs the cycle model. *)
let publish_metrics t o =
  let s = t.stats in
  Obs.set o "dbm.translated_insns" s.translated_insns;
  Obs.set o "dbm.fragments_built" s.fragments_built;
  Obs.set o "dbm.traces_built" s.traces_built;
  Obs.set o "dbm.dispatches" s.dispatches;
  Obs.set o "dbm.translate_cycles" s.translate_cycles;
  Obs.set o "dbm.translate_cycles_main" s.translate_cycles_main;
  Obs.set o "dbm.check_cycles" s.check_cycles;
  Obs.set o "dbm.init_finish_cycles" s.init_finish_cycles;
  Obs.set o "dbm.parallel_cycles" s.parallel_cycles;
  Obs.set o "dbm.stm_commits" s.stm_commits;
  Obs.set o "dbm.stm_aborts" s.stm_aborts;
  Obs.set o "dbm.cache_flushes" s.cache_flushes
