(* Tests for the parallel runtime: iteration-space arithmetic, chunk
   partitioning, reductions, bound slots, runtime checks and the STM. *)

open Janus_vx
open Janus_vm
module Runtime = Janus_runtime.Runtime
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Dbm = Janus_dbm.Dbm

(* ------------------------------------------------------------------ *)
(* trip_count                                                          *)
(* ------------------------------------------------------------------ *)

(* reference implementation by brute force *)
let trips_ref ~init ~bound ~step ~cond =
  let continue_ iv =
    let open Int64 in
    match cond with
    | Cond.Lt -> compare iv bound < 0
    | Cond.Le -> compare iv bound <= 0
    | Cond.Gt -> compare iv bound > 0
    | Cond.Ge -> compare iv bound >= 0
    | Cond.Ne -> not (equal iv bound)
    | Cond.Ult -> unsigned_compare iv bound < 0
    | Cond.Ule -> unsigned_compare iv bound <= 0
    | Cond.Ugt -> unsigned_compare iv bound > 0
    | Cond.Uge -> unsigned_compare iv bound >= 0
    | Cond.Eq | Cond.S | Cond.Ns -> false
  in
  let rec go iv n =
    if n > 10000 then n else if continue_ iv then go (Int64.add iv step) (n + 1)
    else n
  in
  go init 0

let gen_trip_case =
  let open QCheck2.Gen in
  let* init = map Int64.of_int (int_range (-50) 50) in
  let* bound = map Int64.of_int (int_range (-50) 200) in
  let* step_mag = int_range 1 7 in
  let* up = bool in
  let step = Int64.of_int (if up then step_mag else -step_mag) in
  let* cond =
    oneofl
      (if up then [ Cond.Lt; Cond.Le ] else [ Cond.Gt; Cond.Ge ])
  in
  return (init, bound, step, cond)

let prop_trip_count =
  QCheck2.Test.make ~count:500 ~name:"trip_count matches brute force"
    ~print:(fun (i, b, s, c) ->
        Printf.sprintf "init=%Ld bound=%Ld step=%Ld cond=%s" i b s (Cond.name c))
    gen_trip_case
    (fun (init, bound, step, cond) ->
       Runtime.trip_count ~init ~bound ~step ~cond
       = trips_ref ~init ~bound ~step ~cond)

let test_trip_count_ne () =
  Alcotest.(check int) "ne divisible" 10
    (Runtime.trip_count ~init:0L ~bound:10L ~step:1L ~cond:Cond.Ne);
  Alcotest.(check int) "ne with step" 5
    (Runtime.trip_count ~init:0L ~bound:10L ~step:2L ~cond:Cond.Ne)

let test_trip_count_empty () =
  Alcotest.(check int) "empty lt" 0
    (Runtime.trip_count ~init:10L ~bound:10L ~step:1L ~cond:Cond.Lt);
  Alcotest.(check int) "empty gt" 0
    (Runtime.trip_count ~init:5L ~bound:10L ~step:(-1L) ~cond:Cond.Gt);
  Alcotest.(check int) "zero step" 0
    (Runtime.trip_count ~init:0L ~bound:10L ~step:0L ~cond:Cond.Lt)

(* ------------------------------------------------------------------ *)
(* chunk partitioning                                                  *)
(* ------------------------------------------------------------------ *)

(* every iteration value appears exactly once across all chunks *)
let chunk_values chunks step =
  Array.to_list chunks
  |> List.concat_map (fun cs ->
      List.concat_map
        (fun (c : Runtime.chunk) ->
           let rec go iv acc =
             if
               (Int64.compare step 0L > 0 && Int64.compare iv c.Runtime.c_end >= 0)
               || (Int64.compare step 0L < 0 && Int64.compare iv c.Runtime.c_end <= 0)
             then List.rev acc
             else go (Int64.add iv step) (iv :: acc)
           in
           go c.Runtime.c_start [])
        cs)

let expected_values ~init ~step ~trips =
  List.init trips (fun k -> Int64.add init (Int64.mul (Int64.of_int k) step))

let gen_partition_case =
  let open QCheck2.Gen in
  let* init = map Int64.of_int (int_range (-20) 20) in
  let* trips = int_range 1 100 in
  let* step_mag = int_range 1 5 in
  let* up = bool in
  let* threads = int_range 1 8 in
  let* block = int_range 1 9 in
  return (init, trips, Int64.of_int (if up then step_mag else -step_mag),
          threads, block)

let prop_chunked_partition_complete =
  QCheck2.Test.make ~count:300 ~name:"chunked partition covers iteration space"
    gen_partition_case
    (fun (init, trips, step, threads, _) ->
       let chunks = Runtime.chunked_chunks ~init ~step ~trips ~threads in
       List.sort compare (chunk_values chunks step)
       = List.sort compare (expected_values ~init ~step ~trips))

let prop_rr_partition_complete =
  QCheck2.Test.make ~count:300 ~name:"round-robin partition covers iteration space"
    gen_partition_case
    (fun (init, trips, step, threads, block) ->
       let chunks = Runtime.rr_chunks ~init ~step ~trips ~threads ~block in
       List.sort compare (chunk_values chunks step)
       = List.sort compare (expected_values ~init ~step ~trips))

let prop_chunked_is_contiguous_ordered =
  QCheck2.Test.make ~count:200 ~name:"chunked chunks are in thread order"
    gen_partition_case
    (fun (init, trips, step, threads, _) ->
       let chunks = Runtime.chunked_chunks ~init ~step ~trips ~threads in
       (* thread w's values all precede thread w+1's (in iteration order) *)
       let rec ordered prev = function
         | [] -> true
         | vs :: rest ->
           (match vs, prev with
            | [], _ -> ordered prev rest
            | _, Some p ->
              let mn = List.fold_left min (List.hd vs) vs in
              Int64.compare
                (Int64.mul (Int64.sub mn p) (if Int64.compare step 0L > 0 then 1L else -1L))
                0L > 0
              && ordered (Some (List.fold_left max (List.hd vs) vs)) rest
            | _, None -> ordered (Some (List.fold_left max (List.hd vs) vs)) rest)
       in
       let per_thread =
         Array.to_list chunks
         |> List.map (fun cs -> chunk_values [| cs |] step)
       in
       if Int64.compare step 0L > 0 then ordered None per_thread
       else true (* descending loops mirror the argument *))

(* ------------------------------------------------------------------ *)
(* bound slots                                                         *)
(* ------------------------------------------------------------------ *)

let test_bound_slot_values () =
  (* Lt: the rewritten compare continues while iv < slot: slot = end *)
  Alcotest.(check int64) "lt" 100L
    (Runtime.bound_slot_value ~end_iv:100L ~step:1L ~cond:Cond.Lt ~adjust:0L);
  (* Le: continues while iv <= slot: slot = last = end - step *)
  Alcotest.(check int64) "le" 99L
    (Runtime.bound_slot_value ~end_iv:100L ~step:1L ~cond:Cond.Le ~adjust:0L);
  (* unrolled compare tests (iv + adjust) *)
  Alcotest.(check int64) "lt adjusted" 101L
    (Runtime.bound_slot_value ~end_iv:100L ~step:2L ~cond:Cond.Lt ~adjust:1L);
  (* descending *)
  Alcotest.(check int64) "ge" 12L
    (Runtime.bound_slot_value ~end_iv:10L ~step:(-2L) ~cond:Cond.Ge ~adjust:0L)

(* ------------------------------------------------------------------ *)
(* reductions                                                          *)
(* ------------------------------------------------------------------ *)

let test_redop_identities () =
  Alcotest.(check int64) "int add" 5L
    (Runtime.redop_combine Desc.Radd_int (Runtime.redop_identity Desc.Radd_int) 5L);
  let f v = Int64.bits_of_float v in
  Alcotest.(check int64) "f64 add" (f 2.5)
    (Runtime.redop_combine Desc.Radd_f64
       (Runtime.redop_identity Desc.Radd_f64) (f 2.5));
  Alcotest.(check int64) "f64 mul" (f 2.5)
    (Runtime.redop_combine Desc.Rmul_f64
       (Runtime.redop_identity Desc.Rmul_f64) (f 2.5))

let prop_reduction_combine_associative =
  QCheck2.Test.make ~count:200 ~name:"int reduction combine is associative"
    QCheck2.Gen.(tup3 ui64 ui64 ui64)
    (fun (a, b, c) ->
       Runtime.redop_combine Desc.Radd_int a
         (Runtime.redop_combine Desc.Radd_int b c)
       = Runtime.redop_combine Desc.Radd_int
           (Runtime.redop_combine Desc.Radd_int a b)
           c)

(* ------------------------------------------------------------------ *)
(* runtime checks                                                      *)
(* ------------------------------------------------------------------ *)

let make_rt ?schedule () =
  let b = Builder.create () in
  Builder.label b "_start";
  Builder.ins b Insn.Hlt;
  let img = Builder.to_image b ~entry:"_start" in
  let prog = Program.load ~code:(Code.of_image img) img in
  let dbm = Dbm.create ?schedule prog in
  let rt = Runtime.create dbm in
  let ctx = Run.fresh_context prog in
  (rt, ctx)

let range base extent width written =
  { Desc.base = Rexpr.Const (Int64.of_int base);
    extent = Rexpr.Const (Int64.of_int extent); width; written }

let test_check_disjoint_passes () =
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 800 8 true; range 0x801000 800 8 false ] }
  in
  Alcotest.(check bool) "disjoint passes" true (Runtime.eval_check rt ctx cd)

let test_check_overlap_fails () =
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 800 8 true; range 0x800100 800 8 false ] }
  in
  Alcotest.(check bool) "overlap fails" false (Runtime.eval_check rt ctx cd)

let test_check_adjacent_passes () =
  (* ranges touching exactly at the boundary are disjoint *)
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 792 8 true; range 0x800320 792 8 false ] }
  in
  (* [0x800000, 0x800000+792+8) = [.., 0x800320) then next starts there *)
  Alcotest.(check bool) "adjacent passes" true (Runtime.eval_check rt ctx cd)

let test_check_identical_inplace_passes () =
  (* identical ranges mean the loop reads and writes the same element
     each iteration: an in-place map, safely parallel *)
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 800 8 true; range 0x800000 800 8 false ] }
  in
  Alcotest.(check bool) "in-place map passes" true (Runtime.eval_check rt ctx cd)

let test_check_read_read_ignored () =
  (* overlapping reads without a write are not checked *)
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 800 8 false; range 0x800100 800 8 false ] }
  in
  Alcotest.(check bool) "reads may overlap" true (Runtime.eval_check rt ctx cd)

let test_check_negative_extent () =
  (* descending loops produce negative spans *)
  let rt, ctx = make_rt () in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800800 (-800) 8 true; range 0x800900 100 8 false ] }
  in
  (* write covers [0x800500, 0x800808); read [0x800900, ..) : disjoint *)
  Alcotest.(check bool) "negative extent handled" true
    (Runtime.eval_check rt ctx cd)

(* ------------------------------------------------------------------ *)
(* STM                                                                 *)
(* ------------------------------------------------------------------ *)

let test_stm_commit () =
  let rt, ctx = make_rt () in
  ignore (Machine.start_txn ctx);
  Semantics.raw_write ctx 0x800000 42L;
  ignore (Semantics.raw_read ctx 0x800008);
  (match Runtime.tx_finish rt 0 ctx with
   | Dbm.Continue -> ()
   | _ -> Alcotest.fail "commit should continue");
  Alcotest.(check int64) "committed" 42L
    (Memory.read_i64 ctx.Machine.mem 0x800000);
  Alcotest.(check int) "commit counted" 1
    rt.Runtime.dbm.Dbm.stats.Dbm.stm_commits

let test_stm_abort_on_conflict () =
  let rt, ctx = make_rt () in
  ctx.Machine.rip <- 0x400123;  (* pretend we are at the TX_START call *)
  ignore (Machine.start_txn ctx);
  (* speculative read observes 0 *)
  ignore (Semantics.raw_read ctx 0x800000);
  Semantics.raw_write ctx 0x800100 7L;
  (* another thread commits a conflicting write underneath *)
  Memory.write_i64 ctx.Machine.mem 0x800000 999L;
  (match Runtime.tx_finish rt 3 ctx with
   | Dbm.Divert a -> Alcotest.(check int) "resumes at checkpoint" 0x400123 a
   | _ -> Alcotest.fail "conflict should divert");
  (* the buffered store was discarded *)
  Alcotest.(check int64) "store discarded" 0L
    (Memory.read_i64 ctx.Machine.mem 0x800100);
  Alcotest.(check int) "abort counted" 1 rt.Runtime.dbm.Dbm.stats.Dbm.stm_aborts;
  (* re-execution is non-speculative: tx_start skips once *)
  (match Runtime.tx_start rt 3 ctx 0x400123 with
   | Dbm.Continue -> ()
   | _ -> Alcotest.fail "should continue");
  Alcotest.(check bool) "no txn installed on retry" true
    (ctx.Machine.txn = None)

(* regression: an abort's (worker, addr) skip entry must not survive
   into the next loop invocation — it would silently suppress
   speculation there.  skip_tx is cleared at every LOOP_INIT. *)
let test_skip_tx_cleared_between_invocations () =
  let rt, ctx = make_rt () in
  Runtime.install rt;
  (* first invocation: a conflict aborts the transaction at 0x400123 *)
  ctx.Machine.rip <- 0x400123;
  ignore (Machine.start_txn ctx);
  ignore (Semantics.raw_read ctx 0x800000);
  Memory.write_i64 ctx.Machine.mem 0x800000 999L;
  (match Runtime.tx_finish rt 2 ctx with
   | Dbm.Divert _ -> ()
   | _ -> Alcotest.fail "conflict should divert");
  Alcotest.(check int) "abort leaves a skip entry" 1
    (Hashtbl.length rt.Runtime.skip_tx);
  (* a second invocation begins: LOOP_INIT drops the stale entry *)
  (match
     rt.Runtime.dbm.Dbm.on_event rt.Runtime.dbm Dbm.Main ctx
       (Rule.make ~addr:0x400100 Rule.LOOP_INIT)
   with
   | Dbm.Continue -> ()
   | _ -> Alcotest.fail "loop init without a schedule should continue");
  Alcotest.(check int) "cleared at LOOP_INIT" 0
    (Hashtbl.length rt.Runtime.skip_tx);
  (* so the same call site speculates again instead of running bare *)
  (match Runtime.tx_start rt 2 ctx 0x400123 with
   | Dbm.Continue -> ()
   | _ -> Alcotest.fail "tx_start should continue");
  Alcotest.(check bool) "speculation resumes" true (ctx.Machine.txn <> None)

(* A descriptor decodes when a rule carrying it first fires and is
   reused by every later firing of the run; one that does not decode
   (only an unverified schedule can carry it) raises at each firing and
   is never kept. *)
let test_descriptors_decode_once () =
  let b = Schedule.builder Schedule.Parallelisation in
  let cd =
    { Desc.check_loop_id = 1;
      ranges = [ range 0x800000 800 8 true; range 0x801000 800 8 false ] }
  in
  let good = Schedule.add_check_desc b cd in
  let schedule = Schedule.build b in
  let bad = Bytes.length schedule.Schedule.data + 64 in
  let rt, ctx = make_rt ~schedule () in
  Runtime.install rt;
  let fire id off =
    rt.Runtime.dbm.Dbm.on_event rt.Runtime.dbm Dbm.Main ctx
      (Rule.make ~addr:0x400100 ~data:(Int64.of_int off) ~aux:1L id)
  in
  let check () =
    match fire Rule.MEM_BOUNDS_CHECK good with
    | Dbm.Continue -> Machine.Int_table.find rt.Runtime.check_descs good
    | _ -> Alcotest.fail "a bounds check continues"
  in
  let first = check () in
  Alcotest.(check bool) "decoded once, then reused" true (check () == first);
  Alcotest.(check int) "one check descriptor" 1
    (Machine.Int_table.length rt.Runtime.check_descs);
  for _ = 1 to 2 do
    match fire Rule.LOOP_INIT bad with
    | _ -> Alcotest.fail "an undecodable descriptor raises where it fires"
    | exception (Invalid_argument _ | Failure _ | End_of_file) -> ()
  done;
  Alcotest.(check int) "an undecodable descriptor is not kept" 0
    (Machine.Int_table.length rt.Runtime.loop_descs)

let test_stm_write_skew_safe () =
  (* a transaction that only reads commits even if it read hot data *)
  let rt, ctx = make_rt () in
  Memory.write_i64 ctx.Machine.mem 0x800000 5L;
  ignore (Machine.start_txn ctx);
  ignore (Semantics.raw_read ctx 0x800000);
  match Runtime.tx_finish rt 0 ctx with
  | Dbm.Continue -> ()
  | _ -> Alcotest.fail "read-only txn must commit"

(* the STM is lazy-versioned: writes buffer in the transaction and
   reach memory only at commit, and the runtime commits workers in
   iteration order.  So for ANY sequence of read/write sets executed
   iteration by iteration, memory afterwards must equal the last
   writer per word — exactly what a sequential execution leaves. *)
let prop_stm_commit_order_is_iteration_order =
  let gen_ops =
    (* per iteration: up to 6 accesses over 8 word slots *)
    let open QCheck2.Gen in
    let op = tup2 (int_bound 7) bool in
    small_list (small_list op) >|= fun its ->
    List.map (fun ops -> List.filteri (fun i _ -> i < 6) ops) its
  in
  QCheck2.Test.make ~count:200 ~name:"stm commit order equals iteration order"
    gen_ops (fun iterations ->
      let rt, ctx = make_rt () in
      let base = 0x800000 in
      let value ~it ~slot = Int64.of_int (((it + 1) * 100) + slot) in
      let shadow = Array.make 8 0L in
      List.iteri
        (fun it ops ->
           ignore (Machine.start_txn ctx);
           List.iter
             (fun (slot, write) ->
                let addr = base + (8 * slot) in
                if write then begin
                  Semantics.raw_write ctx addr (value ~it ~slot);
                  shadow.(slot) <- value ~it ~slot
                end
                else ignore (Semantics.raw_read ctx addr))
             ops;
           match Runtime.tx_finish rt 0 ctx with
           | Dbm.Continue -> ()
           | _ -> QCheck2.Test.fail_report "in-order commit must succeed")
        iterations;
      let stats = rt.Runtime.dbm.Dbm.stats in
      stats.Dbm.stm_aborts = 0
      && stats.Dbm.stm_commits = List.length iterations
      && Array.for_all
           (fun slot ->
              Memory.read_i64 ctx.Machine.mem (base + (8 * slot))
              = shadow.(slot))
           (Array.init 8 Fun.id))

let tests =
  [
    Alcotest.test_case "trip_count ne" `Quick test_trip_count_ne;
    Alcotest.test_case "trip_count empty" `Quick test_trip_count_empty;
    Alcotest.test_case "bound slots" `Quick test_bound_slot_values;
    Alcotest.test_case "reduction identities" `Quick test_redop_identities;
    Alcotest.test_case "check disjoint passes" `Quick test_check_disjoint_passes;
    Alcotest.test_case "check overlap fails" `Quick test_check_overlap_fails;
    Alcotest.test_case "check adjacent passes" `Quick test_check_adjacent_passes;
    Alcotest.test_case "check in-place map passes" `Quick
      test_check_identical_inplace_passes;
    Alcotest.test_case "check read-read ignored" `Quick
      test_check_read_read_ignored;
    Alcotest.test_case "check negative extent" `Quick test_check_negative_extent;
    Alcotest.test_case "stm commit" `Quick test_stm_commit;
    Alcotest.test_case "stm abort on conflict" `Quick test_stm_abort_on_conflict;
    Alcotest.test_case "skip_tx cleared between invocations" `Quick
      test_skip_tx_cleared_between_invocations;
    Alcotest.test_case "stm read-only commits" `Quick test_stm_write_skew_safe;
    Alcotest.test_case "descriptors decode once per run" `Quick
      test_descriptors_decode_once;
    QCheck_alcotest.to_alcotest prop_trip_count;
    QCheck_alcotest.to_alcotest prop_chunked_partition_complete;
    QCheck_alcotest.to_alcotest prop_rr_partition_complete;
    QCheck_alcotest.to_alcotest prop_chunked_is_contiguous_ordered;
    QCheck_alcotest.to_alcotest prop_reduction_combine_associative;
    QCheck_alcotest.to_alcotest prop_stm_commit_order_is_iteration_order;
  ]
