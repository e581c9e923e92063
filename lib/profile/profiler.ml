(** Statically-driven profiling (§II-C): the analyser's profiling
    rewrite schedule drives instrumentation inside the same DBM — only
    the loops of interest, and only the instructions the static pass
    could not disambiguate, are instrumented.

    One training run yields two profiles:
    - {e coverage}: dynamic instructions attributed to the innermost
      active loop, iteration and invocation counts, external-call
      footprints;
    - {e dependence}: a shadow word-map detecting cross-iteration
      conflicts among the statically ambiguous accesses. *)

open Janus_vm
module Rule = Janus_schedule.Rule
module Dbm = Janus_dbm.Dbm
module Analysis = Janus_analysis.Analysis
module Loopanal = Janus_analysis.Loopanal
module Looptree = Janus_analysis.Looptree
module Rulegen = Janus_analysis.Rulegen

type loop_cov = {
  mutable self_insns : int;
  mutable invocations : int;
  mutable iterations : int;
  mutable ex_calls : int;
  mutable ex_insns : int;    (* instructions inside external calls *)
  mutable ex_reads : int;    (* non-stack reads inside external calls *)
  mutable ex_writes : int;
}

type coverage = {
  total_insns : int;
  loops : (int, loop_cov) Hashtbl.t;  (* loop id -> counters *)
}

let cov_of coverage lid =
  match Hashtbl.find_opt coverage.loops lid with
  | Some c -> c
  | None ->
    { self_insns = 0; invocations = 0; iterations = 0; ex_calls = 0;
      ex_insns = 0; ex_reads = 0; ex_writes = 0 }

(** Fraction of all dynamic instructions spent inside loop [lid]. *)
let fraction coverage lid =
  if coverage.total_insns = 0 then 0.0
  else
    float_of_int (cov_of coverage lid).self_insns
    /. float_of_int coverage.total_insns

let avg_trip coverage lid =
  let c = cov_of coverage lid in
  if c.invocations = 0 then 0.0
  else float_of_int c.iterations /. float_of_int c.invocations

(** Average dynamic instructions per invocation — the profitability
    signal behind the paper's "high invocation count" filter. *)
let avg_work coverage lid =
  let c = cov_of coverage lid in
  if c.invocations = 0 then 0.0
  else float_of_int c.self_insns /. float_of_int c.invocations

(* sorted loop ids: the canonical iteration order for serialisers *)
let loop_ids coverage =
  Hashtbl.fold (fun lid _ acc -> lid :: acc) coverage.loops []
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Dependence profiles                                                 *)
(* ------------------------------------------------------------------ *)

(* The shadow word-map at the heart of dependence detection: every
   watched access lands here attributed to an iteration; touching a
   word from two different iterations with at least one write is a
   cross-iteration dependence. The offline profiler attributes by its
   ITER counter; the runtime's training-free sampler attributes by the
   loop's induction-variable value — the map does not care. *)
module Shadow = struct
  type t = {
    words : (int, int * bool) Hashtbl.t;  (* word -> (iter, was_write) *)
    mutable found : bool;
  }

  let create () = { words = Hashtbl.create 256; found = false }

  let reset s =
    Hashtbl.reset s.words;
    s.found <- false

  let access s ~iter ~addr ~bytes ~write =
    let words = (bytes + 7) / 8 in
    for k = 0 to words - 1 do
      let w = (addr + (8 * k)) land lnot 7 in
      match Hashtbl.find_opt s.words w with
      | Some (it', was_write) ->
        if it' <> iter && (write || was_write) then s.found <- true;
        let keep_write = write || (it' = iter && was_write) in
        Hashtbl.replace s.words w (iter, keep_write)
      | None -> Hashtbl.replace s.words w (iter, write)
    done

  let found s = s.found
end

type deps = {
  dep_found : (int, bool) Hashtbl.t;  (* loop id -> cross-iteration dep *)
  observed : (int, bool) Hashtbl.t;   (* loop id executed at all *)
}

let has_dep deps lid =
  try Hashtbl.find deps.dep_found lid with Not_found -> false

let was_observed deps lid =
  try Hashtbl.find deps.observed lid with Not_found -> false

let dep_loop_ids deps =
  Hashtbl.fold (fun lid _ acc -> lid :: acc) deps.observed []
  |> Hashtbl.fold (fun lid _ acc -> lid :: acc) deps.dep_found
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* The training run                                                    *)
(* ------------------------------------------------------------------ *)

(* dependence state of one Ambiguous loop; accesses are attributed to
   the loop named by their rule, so unrolled main/remainder pairs
   sharing exits cannot interfere *)
type dep_loop = { mutable iter : int; shadow : Shadow.t }

let run ?(fuel = 100_000_000) ?(input = []) image (analysis : Analysis.t) =
  let schedule =
    Rulegen.profiling_schedule analysis.Analysis.cfg analysis.Analysis.reports
  in
  let prog = Program.load image in
  let dbm = Dbm.create ~schedule prog in
  let cache = Dbm.new_cache Dbm.Main in
  let ctx = Run.fresh_context prog in
  (* coverage: attribute instruction deltas to the innermost active loop *)
  let loops = Hashtbl.create 16 in
  let get lid =
    match Hashtbl.find_opt loops lid with
    | Some c -> c
    | None ->
      let c =
        { self_insns = 0; invocations = 0; iterations = 0; ex_calls = 0;
          ex_insns = 0; ex_reads = 0; ex_writes = 0 }
      in
      Hashtbl.replace loops lid c;
      c
  in
  let active : int list ref = ref [] in
  let last_mark = ref 0 in
  let excall : (int * int) option ref = ref None in  (* lid, entry icount *)
  let ex_reads = ref 0 and ex_writes = ref 0 in
  let attribute () =
    (match !active with
     | lid :: _ ->
       let c = get lid in
       c.self_insns <- c.self_insns + (ctx.Machine.icount - !last_mark)
     | [] -> ());
    last_mark := ctx.Machine.icount
  in
  (* dependence: state for the Ambiguous loops only *)
  let dep_loops : (int, dep_loop) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Loopanal.report) ->
       match r.Loopanal.cls with
       | Loopanal.Ambiguous _ ->
         Hashtbl.replace dep_loops r.Loopanal.loop.Looptree.lid
           { iter = 0; shadow = Shadow.create () }
       | _ -> ())
    analysis.Analysis.reports;
  let dep_found = Hashtbl.create 8 in
  let observed = Hashtbl.create 8 in
  let dep_active = ref 0 in  (* active Ambiguous loops *)
  let armed_addr = ref (-1) in
  let armed_lid = ref (-1) in
  (* one observer serves the external-call counters and the shadow
     map, installed while either is live *)
  let observe =
    Some
      (fun rw ~addr ~bytes ->
         if Option.is_some !excall && addr < Janus_vx.Layout.tls_base 0
         then begin
           match rw with
           | Machine.Read -> incr ex_reads
           | Machine.Write -> incr ex_writes
         end;
         if !dep_active > 0 && ctx.Machine.rip = !armed_addr then begin
           let d = Hashtbl.find dep_loops !armed_lid in
           Shadow.access d.shadow ~iter:d.iter ~addr ~bytes
             ~write:(rw = Machine.Write);
           if Shadow.found d.shadow then
             Hashtbl.replace dep_found !armed_lid true
         end)
  in
  let sync_observer () =
    ctx.Machine.observe <-
      (if Option.is_some !excall || !dep_active > 0 then observe else None)
  in
  dbm.Dbm.on_event <-
    (fun _ _ _ r ->
       let lid = Int64.to_int r.Rule.data in
       (match r.Rule.id with
        | Rule.PROF_LOOP_START ->
          (* entry is detected robustly at the first ITER instead: a
             vectorised loop's remainder has its preheader inside the
             vector loop, so START can fire per vector iteration *)
          attribute ()
        | Rule.PROF_LOOP_ITER ->
          attribute ();
          let c = get lid in
          c.iterations <- c.iterations + 1;
          let entering = not (List.mem lid !active) in
          if entering then begin
            c.invocations <- c.invocations + 1;
            active := lid :: !active
          end;
          (match Hashtbl.find_opt dep_loops lid with
           | Some d when entering ->
             (* loop entry: fresh iteration count and shadow state *)
             Hashtbl.replace observed lid true;
             d.iter <- 0;
             Shadow.reset d.shadow;
             incr dep_active;
             sync_observer ()
           | Some d -> d.iter <- d.iter + 1
           | None -> ())
        | Rule.PROF_LOOP_FINISH ->
          attribute ();
          if List.mem lid !active && Hashtbl.mem dep_loops lid then begin
            decr dep_active;
            sync_observer ()
          end;
          active := List.filter (fun x -> x <> lid) !active
        | Rule.PROF_EXCALL_START ->
          let c = get lid in
          c.ex_calls <- c.ex_calls + 1;
          excall := Some (lid, ctx.Machine.icount);
          ex_reads := 0;
          ex_writes := 0;
          sync_observer ()
        | Rule.PROF_EXCALL_FINISH -> begin
            match !excall with
            | Some (lid', entry) ->
              let c = get lid' in
              c.ex_insns <- c.ex_insns + (ctx.Machine.icount - entry);
              c.ex_reads <- c.ex_reads + !ex_reads;
              c.ex_writes <- c.ex_writes + !ex_writes;
              excall := None;
              sync_observer ()
            | None -> ()
          end
        | Rule.PROF_MEM_ACCESS ->
          armed_addr := r.Rule.addr;
          armed_lid := lid
        | _ -> ());
       Dbm.Continue);
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  ignore (Dbm.run ~fuel dbm cache ctx);
  ({ total_insns = ctx.Machine.icount; loops }, { dep_found; observed })
