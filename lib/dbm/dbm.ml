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

(* A compiled execution step: one slot, or a fused superinstruction
   covering the two hottest adjacent pairs VX64 code exhibits (compare +
   conditional branch; induction-variable update + bound compare;
   register move feeding an ALU op). Fusion is sound only when nothing
   can observe the machine between the two halves: both slots must be
   event-free and every operand a register or immediate — no memory
   access means no observer callback, no STM buffering, no cache-model
   touch and no fault, and none of these opcodes read [rip]. The fused
   step charges the sum of the halves' precomputed costs and bumps
   icount by 2, so cycles and instruction counts are bit-identical with
   fusion on or off. *)
type step =
  | Step of slot
  | Cmp_jcc of { addr : int; a : Operand.t; b : Operand.t; cond : Cond.t;
                 target : int; cost : int }
  | Alu_cmp of { addr : int; op : Insn.alu; d : Operand.t; s : Operand.t;
                 a : Operand.t; b : Operand.t; cost : int }
  | Mov_alu of { addr : int; d1 : Operand.t; s1 : Operand.t; op : Insn.alu;
                 d2 : Operand.t; s2 : Operand.t; cost : int }

type fragment = {
  f_start : int;
  f_slots : slot array;
  f_steps : step array;   (* what exec_fragment actually runs *)
  f_ends_indirect : bool; (* last slot is an indirect jmp/call or a ret *)
  mutable f_execs : int;
  mutable f_is_trace : bool;
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

type t = {
  prog : Program.t;
  rules : (int, Rule.t list) Hashtbl.t;   (* the rule hash table *)
  schedule : Schedule.t option;
  stats : stats;
  promote_threshold : int;    (* fragment executions before trace promotion *)
  fuse : bool;                (* superinstruction fusion in translated code *)
  mutable obs : Obs.t option;
  mutable on_event : t -> thread_kind -> Machine.t -> Rule.t -> action;
}

(** A per-thread code cache. *)
type cache = {
  kind : thread_kind;
  frags : (int, fragment) Hashtbl.t;
  mutable last_indirect : bool;   (* previous fragment ended indirectly *)
  mutable skip : (int -> bool) option;
      (* loop fission: addresses this cache's fragments elide (the other
         sub-loops' instructions); control flow is never elided *)
}

let create ?schedule ?obs ?(promote_threshold = Cost.trace_head_threshold)
    ?(fuse = true) prog =
  let rules = Hashtbl.create 64 in
  (match schedule with
   | Some s ->
     Hashtbl.iter (fun a rs -> Hashtbl.replace rules a rs) (Schedule.index s)
   | None -> ());
  {
    prog;
    rules;
    schedule;
    stats = new_stats ();
    promote_threshold;
    fuse;
    obs;
    on_event = (fun _ _ _ _ -> Continue);
  }

let new_cache ?skip kind =
  { kind; frags = Hashtbl.create 256; last_indirect = false; skip }

(* trace-event thread ids: 0 = main, w+1 = worker w *)
let tid_of = function Main -> 0 | Worker w -> w + 1

let flush_cache ?(now = 0) t (c : cache) =
  Hashtbl.reset c.frags;
  t.stats.cache_flushes <- t.stats.cache_flushes + 1;
  match t.obs with
  | Some o when Obs.tracing o ->
    Obs.emit o ~tid:(tid_of c.kind) ~ts:now Obs.Cache_flushed
  | _ -> ()

let rules_at t addr = try Hashtbl.find t.rules addr with Not_found -> []

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

(* zero-length slot holding an inserted prefetch hint *)
let prefetch_slots (rs : Rule.t list) insn addr =
  List.filter_map
    (fun (r : Rule.t) ->
       if r.Rule.id = Rule.MEM_PREFETCH then
         match prefetch_mem insn (Int64.to_int r.Rule.data) with
         | Some pm ->
           let pi = Insn.Prefetch pm in
           Some { s_insn = pi; s_addr = addr; s_len = 0;
                  s_cost = Cost.of_insn pi; s_events = [] }
         | None -> None
       else None)
    rs

(* ------------------------------------------------------------------ *)
(* Superinstruction fusion                                             *)
(* ------------------------------------------------------------------ *)

let regimm = function
  | Operand.Reg _ | Operand.Imm _ -> true
  | Operand.Mem _ -> false

let is_reg = function Operand.Reg _ -> true | _ -> false

(* Compile a fragment's slots into execution steps, fusing eligible
   adjacent pairs when [fuse] is on. Eligibility (see the [step]
   comment): both slots event-free, destinations registers, every
   operand register/immediate. With [fuse] off every slot becomes its
   own [Step], which is the pre-fusion executor exactly. *)
let fuse_steps fuse (slots : slot array) =
  let n = Array.length slots in
  let steps = ref [] in
  let i = ref 0 in
  while !i < n do
    let x = slots.(!i) in
    let fused =
      if (not fuse) || x.s_events <> [] || !i + 1 >= n then None
      else begin
        let y = slots.(!i + 1) in
        if y.s_events <> [] then None
        else
          let cost = x.s_cost + y.s_cost in
          match x.s_insn, y.s_insn with
          | Insn.Cmp (a, b), Insn.Jcc (cond, target)
            when regimm a && regimm b ->
            Some (Cmp_jcc { addr = x.s_addr; a; b; cond; target; cost })
          | Insn.Alu (op, d, s), Insn.Cmp (a, b)
            when is_reg d && regimm s && regimm a && regimm b ->
            Some (Alu_cmp { addr = x.s_addr; op; d; s; a; b; cost })
          | Insn.Mov (d1, s1), Insn.Alu (op, d2, s2)
            when is_reg d1 && regimm s1 && is_reg d2 && regimm s2 ->
            Some (Mov_alu { addr = x.s_addr; d1; s1; op; d2; s2; cost })
          | _ -> None
      end
    in
    match fused with
    | Some st ->
      steps := st :: !steps;
      i := !i + 2
    | None ->
      steps := Step x :: !steps;
      incr i
  done;
  Array.of_list (List.rev !steps)

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

(* does a fragment of these slots exit through an indirect transfer?
   (the next dispatch then pays the indirect cost) *)
let ends_indirect (slots : slot array) =
  let n = Array.length slots in
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

(* translate one basic block starting at [addr] into a fragment,
   charging translation cost to [ctx] *)
let translate t (cache : cache) ctx addr =
  let slots = ref [] in
  let count = ref 0 in
  let rec walk a =
    match Program.fetch t.prog a with
    | None -> ()
    | Some (insn, len) ->
      incr count;
      let rs = List.filter (applies cache.kind) (rules_at t a) in
      let events = List.filter (fun r -> not (is_transform r)) rs in
      let insn' =
        List.fold_left
          (fun i r -> if is_transform r then apply_transform r i else i)
          insn rs
      in
      if elided cache a insn then begin
        (* drop the slot outright — control flow is never elided, so
           fragment exits are unaffected and the elision really is free;
           an attached event keeps a 1-cycle Nop slot as its anchor *)
        if events <> [] then
          slots := { s_insn = Insn.Nop; s_addr = a; s_len = len;
                     s_cost = Cost.of_insn Insn.Nop; s_events = events }
                   :: !slots
      end
      else begin
        List.iter (fun s -> slots := s :: !slots) (prefetch_slots rs insn' a);
        slots := { s_insn = insn'; s_addr = a; s_len = len;
                   s_cost = Cost.of_insn insn'; s_events = events }
                 :: !slots
      end;
      if not (Insn.is_control_flow insn)
         && insn <> Insn.Syscall Insn.sys_exit
      then walk (a + len)
  in
  walk addr;
  let slots = Array.of_list (List.rev !slots) in
  let cost = Cost.fragment_setup + (Cost.translate_per_insn * !count) in
  let t0 = ctx.Machine.cycles in
  ctx.Machine.cycles <- ctx.Machine.cycles + cost;
  t.stats.translate_cycles <- t.stats.translate_cycles + cost;
  if cache.kind = Main then
    t.stats.translate_cycles_main <- t.stats.translate_cycles_main + cost;
  t.stats.translated_insns <- t.stats.translated_insns + !count;
  t.stats.fragments_built <- t.stats.fragments_built + 1;
  (match t.obs with
   | Some o when Obs.tracing o ->
     let tid = tid_of cache.kind in
     Obs.emit o ~tid ~ts:t0 ~dur:cost
       (Obs.Block_translated { addr; insns = !count; trace = false });
     (match Program.plt_name t.prog addr with
      | Some name -> Obs.emit o ~tid ~ts:t0 (Obs.Lib_resolved { name; addr })
      | None -> ())
   | _ -> ());
  let frag =
    { f_start = addr; f_slots = slots; f_steps = fuse_steps t.fuse slots;
      f_ends_indirect = ends_indirect slots;
      f_execs = 0; f_is_trace = false; f_linked = false }
  in
  Hashtbl.replace cache.frags addr frag;
  frag

(* trace promotion: extend a hot fragment across unconditional direct
   jumps, eliding the jump instructions (DynamoRIO trace optimisation) *)
let promote_trace t (cache : cache) ctx frag =
  let slots = ref [] in
  let seen = Hashtbl.create 8 in
  let count = ref 0 in
  let rec extend addr blocks =
    if blocks > 8 || Hashtbl.mem seen addr then ()
    else begin
      Hashtbl.replace seen addr ();
      let rec walk a =
        match Program.fetch t.prog a with
        | None -> ()
        | Some (insn, len) ->
          let rs = List.filter (applies cache.kind) (rules_at t a) in
          let events = List.filter (fun r -> not (is_transform r)) rs in
          let insn' =
            List.fold_left
              (fun i r -> if is_transform r then apply_transform r i else i)
              insn rs
          in
          (match insn with
           | Insn.Jmp (Insn.Direct target) when events = [] ->
             (* elide the jump, continue the trace *)
             incr count;
             extend target (blocks + 1)
           | _ when elided cache a insn ->
             incr count;
             if events <> [] then
               slots := { s_insn = Insn.Nop; s_addr = a; s_len = len;
                          s_cost = Cost.of_insn Insn.Nop; s_events = events }
                        :: !slots;
             if not (Insn.is_control_flow insn) then walk (a + len)
           | _ ->
             incr count;
             List.iter (fun s -> slots := s :: !slots)
               (prefetch_slots rs insn' a);
             slots :=
               { s_insn = insn'; s_addr = a; s_len = len;
                 s_cost = Cost.of_insn insn'; s_events = events }
               :: !slots;
             if not (Insn.is_control_flow insn) then walk (a + len))
      in
      walk addr
    end
  in
  extend frag.f_start 0;
  let cost = Cost.fragment_setup + (Cost.translate_per_insn * !count) in
  let t0 = ctx.Machine.cycles in
  ctx.Machine.cycles <- ctx.Machine.cycles + cost;
  t.stats.translate_cycles <- t.stats.translate_cycles + cost;
  if cache.kind = Main then
    t.stats.translate_cycles_main <- t.stats.translate_cycles_main + cost;
  t.stats.traces_built <- t.stats.traces_built + 1;
  (match t.obs with
   | Some o when Obs.tracing o ->
     Obs.emit o ~tid:(tid_of cache.kind) ~ts:t0 ~dur:cost
       (Obs.Block_translated
          { addr = frag.f_start; insns = !count; trace = true })
   | _ -> ());
  let nf =
    let slots = Array.of_list (List.rev !slots) in
    { f_start = frag.f_start; f_slots = slots;
      f_steps = fuse_steps t.fuse slots;
      f_ends_indirect = ends_indirect slots;
      f_execs = frag.f_execs; f_is_trace = true; f_linked = true }
  in
  Hashtbl.replace cache.frags frag.f_start nf;
  nf

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

exception Bad_pc of int

(* How a fragment execution ends. On [Next], [ctx.rip] holds the
   application address control continues at. *)
type outcome =
  | Next
  | Halted
  | Yielded           (* an event handler stopped the thread *)

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

let exec_fragment t (cache : cache) ctx frag =
  frag.f_execs <- frag.f_execs + 1;
  let steps = frag.f_steps in
  let n = Array.length steps in
  let nslots = Array.length frag.f_slots in
  let rec go i =
    if i >= n then begin
      (* fell off the end: block ended by running into a leader *)
      let last = frag.f_slots.(nslots - 1) in
      ctx.Machine.rip <- last.s_addr + last.s_len;
      Next
    end
    else begin
      match Array.unsafe_get steps i with
      | Step slot -> begin
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
            | Semantics.Fall -> go (i + 1)
            | Semantics.Goto a ->
              ctx.Machine.rip <- a;
              Next
            | Semantics.Stop -> Halted
          end
      end
      (* fused superinstructions: event-free, register-only — nothing
         between the two halves is architecturally observable, so one
         rip store and a summed cycle charge are exact *)
      | Cmp_jcc { addr; a; b; cond; target; cost } ->
        ctx.Machine.rip <- addr;
        ctx.Machine.cycles <- ctx.Machine.cycles + cost;
        ctx.Machine.icount <- ctx.Machine.icount + 2;
        if Semantics.cmp_jcc ctx a b cond then begin
          ctx.Machine.rip <- target;
          Next
        end
        else go (i + 1)
      | Alu_cmp { addr; op; d; s; a; b; cost } ->
        ctx.Machine.rip <- addr;
        ctx.Machine.cycles <- ctx.Machine.cycles + cost;
        ctx.Machine.icount <- ctx.Machine.icount + 2;
        Semantics.alu_cmp ctx op d s a b;
        go (i + 1)
      | Mov_alu { addr; d1; s1; op; d2; s2; cost } ->
        ctx.Machine.rip <- addr;
        ctx.Machine.cycles <- ctx.Machine.cycles + cost;
        ctx.Machine.icount <- ctx.Machine.icount + 2;
        Semantics.mov_alu ctx d1 s1 op d2 s2;
        go (i + 1)
    end
  in
  if nslots = 0 then raise (Bad_pc frag.f_start) else go 0

(* The fragment to run at [addr], charging the dispatch: translated on
   a miss, promoted to a trace once hot. *)
let dispatch t (cache : cache) ctx addr =
  match Hashtbl.find cache.frags addr with
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
    if (not f.f_is_trace) && f.f_execs >= t.promote_threshold then
      promote_trace t cache ctx f
    else f
  | exception Not_found ->
    if Program.fetch t.prog addr = None then raise (Bad_pc addr);
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
