(* Tests for the rewrite-schedule interface: rule records, runtime
   expressions, descriptors and their binary round-trips. *)

open Janus_vx
open Janus_schedule

(* ------------------------------------------------------------------ *)
(* Rexpr                                                               *)
(* ------------------------------------------------------------------ *)

let gen_gp =
  QCheck2.Gen.map Reg.gp_of_index (QCheck2.Gen.int_range 0 (Reg.gp_count - 1))

let gen_rexpr =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun v -> Rexpr.Const (Int64.of_int v)) (int_range (-1000) 1000);
                 map (fun r -> Rexpr.Reg r) gen_gp;
               ]
           else
             oneof
               [
                 map (fun v -> Rexpr.Const (Int64.of_int v)) (int_range (-1000) 1000);
                 map (fun r -> Rexpr.Reg r) gen_gp;
                 map (fun e -> Rexpr.Load e) (self (n / 2));
                 map2 (fun a b -> Rexpr.Add (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Rexpr.Sub (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Rexpr.Mul (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Rexpr.Max (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Rexpr.Min (a, b)) (self (n / 2)) (self (n / 2));
               ])
        (min n 6))

let prop_rexpr_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"rexpr serialise roundtrip"
    ~print:Rexpr.to_string gen_rexpr
    (fun e ->
       let buf = Buffer.create 64 in
       Rexpr.write buf e;
       let bytes = Buffer.to_bytes buf in
       let pos = ref 0 in
       let e' = Rexpr.read bytes pos in
       e = e' && !pos = Bytes.length bytes)

let test_rexpr_eval () =
  let env =
    {
      Rexpr.get_reg = (fun r -> Int64.of_int (10 * Reg.gp_index r));
      load = (fun a -> Int64.of_int (a + 1));
    }
  in
  let e =
    (* (rax + 5) * 2 = (0 + 5) * 2 = 10 *)
    Rexpr.Mul (Rexpr.Add (Rexpr.Reg Reg.RAX, Rexpr.Const 5L), Rexpr.Const 2L)
  in
  Alcotest.(check int64) "arith" 10L (Rexpr.eval env e);
  Alcotest.(check int64) "load" 43L (Rexpr.eval env (Rexpr.Load (Rexpr.Const 42L)));
  Alcotest.(check int64) "max" 7L
    (Rexpr.eval env (Rexpr.Max (Rexpr.Const 7L, Rexpr.Const (-3L))));
  Alcotest.(check int64) "min" (-3L)
    (Rexpr.eval env (Rexpr.Min (Rexpr.Const 7L, Rexpr.Const (-3L))))

let test_rexpr_has_load () =
  Alcotest.(check bool) "no load" false
    (Rexpr.has_load (Rexpr.Add (Rexpr.Reg Reg.RAX, Rexpr.Const 1L)));
  Alcotest.(check bool) "load" true
    (Rexpr.has_load (Rexpr.Add (Rexpr.Load (Rexpr.Reg Reg.RSP), Rexpr.Const 1L)))

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rule_id_roundtrip () =
  List.iter
    (fun id ->
       Alcotest.(check bool)
         (Rule.id_name id) true
         (Rule.id_of_int (Rule.id_to_int id) = id))
    Rule.all_ids;
  (* the 18 rules of Fig. 3 plus the MEM_PREFETCH and LOOP_FISSION
     extensions *)
  Alcotest.(check int) "rule count" 20 (List.length Rule.all_ids);
  Alcotest.(check int) "six profiling rules" 6
    (List.length (List.filter Rule.is_profiling Rule.all_ids))

let test_rule_record_roundtrip () =
  let r =
    Rule.make ~addr:0x400123 ~data:(-77L) ~aux:123456789L Rule.MEM_PRIVATISE
  in
  let buf = Buffer.create 32 in
  Rule.write buf r;
  Alcotest.(check int) "record size" Rule.record_size (Buffer.length buf);
  let r' = Rule.read (Buffer.to_bytes buf) 0 in
  Alcotest.(check bool) "roundtrip" true (r = r')

let gen_rule =
  let open QCheck2.Gen in
  let* addr = int_range 0 0xffffff in
  let* id = map Rule.id_of_int (int_range 0 17) in
  let* data = ui64 in
  let* aux = ui64 in
  return (Rule.make ~addr ~data ~aux id)

let prop_rule_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"rule record roundtrip" gen_rule
    (fun r ->
       let buf = Buffer.create 32 in
       Rule.write buf r;
       Rule.read (Buffer.to_bytes buf) 0 = r)

(* ------------------------------------------------------------------ *)
(* Descriptors and whole schedules                                     *)
(* ------------------------------------------------------------------ *)

let sample_loop_desc =
  {
    Desc.loop_id = 7;
    header_addr = 0x400100;
    preheader_addr = 0x4000f0;
    exit_addrs = [ 0x400200; 0x400210 ];
    latch_addr = 0x4001f0;
    iv = Desc.Lreg Reg.RBX;
    iv_step = 2L;
    iv_cond = Cond.Le;
    iv_init = Rexpr.Reg Reg.RBX;
    iv_bound = Rexpr.Load (Rexpr.Add (Rexpr.Reg Reg.RSP, Rexpr.Const 24L));
    iv_bound_adjust = 1L;
    policy = Desc.Round_robin 16;
    reductions = [ (Desc.Lfreg (Reg.XMM 3), Desc.Radd_f64);
                   (Desc.Lstack 16, Desc.Radd_int) ];
    privatised = [ (Rexpr.Const 0x600010L, 1); (Rexpr.Reg Reg.RSP, 2) ];
    live_out_gps = [ Reg.RAX; Reg.RCX ];
    live_out_fps = [ Reg.XMM 0 ];
    frame_copy_bytes = 256;
  }

let test_loop_desc_roundtrip () =
  let buf = Buffer.create 128 in
  Desc.write_loop_desc buf sample_loop_desc;
  let d = Desc.read_loop_desc (Buffer.to_bytes buf) (ref 0) in
  Alcotest.(check bool) "loop desc roundtrip" true (d = sample_loop_desc)

let sample_check_desc =
  {
    Desc.check_loop_id = 7;
    ranges =
      [
        { Desc.base = Rexpr.Reg Reg.RDI;
          extent = Rexpr.Mul (Rexpr.Const 8L, Rexpr.Reg Reg.RDX);
          width = 8; written = true };
        { Desc.base = Rexpr.Reg Reg.RSI;
          extent = Rexpr.Const 1024L; width = 16; written = false };
        { Desc.base = Rexpr.Const 0x700000L;
          extent = Rexpr.Const 800L; width = 8; written = true };
      ];
  }

let test_check_desc_roundtrip () =
  let buf = Buffer.create 128 in
  Desc.write_check_desc buf sample_check_desc;
  let d = Desc.read_check_desc (Buffer.to_bytes buf) (ref 0) in
  Alcotest.(check bool) "check desc roundtrip" true (d = sample_check_desc)

let test_check_pairs () =
  (* 2 written ranges among 3: each write vs every other, pairs counted
     once: (w1,r), (w2,r), (w1,w2) = 2*2 - 1 = 3 *)
  Alcotest.(check int) "pairs" 3 (Desc.check_pairs sample_check_desc);
  let one_range =
    { Desc.check_loop_id = 0;
      ranges = [ { Desc.base = Rexpr.Const 0L; extent = Rexpr.Const 8L;
                   width = 8; written = true } ] }
  in
  Alcotest.(check int) "single range has no pairs" 0
    (Desc.check_pairs one_range)

let test_schedule_roundtrip_with_desc () =
  let b = Schedule.builder Schedule.Parallelisation in
  let off = Schedule.add_loop_desc b sample_loop_desc in
  let coff = Schedule.add_check_desc b sample_check_desc in
  Schedule.add_rule b
    (Rule.make ~addr:0x400100 ~data:(Int64.of_int off) Rule.LOOP_INIT);
  Schedule.add_rule b
    (Rule.make ~addr:0x400100 ~data:(Int64.of_int coff) Rule.MEM_BOUNDS_CHECK);
  Schedule.add_rule b
    (Rule.make ~addr:0x400050 ~data:3L Rule.THREAD_SCHEDULE);
  let s = Schedule.build b in
  let s' = Schedule.of_bytes (Schedule.to_bytes s) in
  Alcotest.(check int) "rules" 3 (List.length s'.Schedule.rules);
  Alcotest.(check bool) "sorted by address" true
    (match s'.Schedule.rules with
     | a :: b :: _ -> a.Rule.addr <= b.Rule.addr
     | _ -> false);
  let d = Schedule.loop_desc s' (Int64.of_int off) in
  Alcotest.(check bool) "descriptor recovered" true (d = sample_loop_desc);
  let c = Schedule.check_desc s' (Int64.of_int coff) in
  Alcotest.(check bool) "check recovered" true (c = sample_check_desc);
  Alcotest.(check int) "size accounting" (Schedule.size s)
    (Bytes.length (Schedule.to_bytes s))

let test_same_address_rule_order () =
  (* rules at one address must be applied in schedule (insertion) order
     (§II-A2) *)
  let b = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule b (Rule.make ~addr:0x400100 ~data:1L Rule.MEM_BOUNDS_CHECK);
  Schedule.add_rule b (Rule.make ~addr:0x400100 ~data:2L Rule.LOOP_INIT);
  Schedule.add_rule b (Rule.make ~addr:0x400100 ~data:3L Rule.MEM_SPILL_REG);
  let s = Schedule.build b in
  let idx = Schedule.index s in
  match Hashtbl.find idx 0x400100 with
  | [ a; b'; c ] ->
    Alcotest.(check bool) "order preserved" true
      (a.Rule.id = Rule.MEM_BOUNDS_CHECK
       && b'.Rule.id = Rule.LOOP_INIT
       && c.Rule.id = Rule.MEM_SPILL_REG)
  | l -> Alcotest.failf "expected 3 rules, got %d" (List.length l)

let gen_schedule =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let* rules = list_size (return n) gen_rule in
  let* channel = oneofl [ Schedule.Profiling; Schedule.Parallelisation ] in
  return
    (let b = Schedule.builder channel in
     List.iter (Schedule.add_rule b) rules;
     Schedule.build b)

let prop_schedule_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"schedule serialise roundtrip"
    gen_schedule
    (fun s ->
       let s' = Schedule.of_bytes (Schedule.to_bytes s) in
       s'.Schedule.rules = s.Schedule.rules
       && s'.Schedule.channel = s.Schedule.channel)

(* random descriptors: every location/redop/policy constructor, Rexprs
   from the generator above *)
let gen_fp =
  QCheck2.Gen.map (fun i -> Reg.XMM i) (QCheck2.Gen.int_range 0 15)

let gen_location =
  let open QCheck2.Gen in
  oneof
    [
      map (fun r -> Desc.Lreg r) gen_gp;
      map (fun r -> Desc.Lfreg r) gen_fp;
      map (fun off -> Desc.Lstack off) (int_range (-512) 512);
      map (fun a -> Desc.Labs a) (int_range 0 0xffffff);
    ]

let gen_redop =
  QCheck2.Gen.oneofl [ Desc.Radd_int; Desc.Radd_f64; Desc.Rmul_f64 ]

let gen_policy =
  let open QCheck2.Gen in
  oneof
    [
      return Desc.Chunked;
      map (fun b -> Desc.Round_robin b) (int_range 1 64);
      map (fun pct -> Desc.Doacross pct) (int_range 0 100);
    ]

let gen_loop_desc =
  let open QCheck2.Gen in
  let* loop_id = int_range 0 200 in
  let* header_addr = int_range 0 0xffffff in
  let* preheader_addr = int_range 0 0xffffff in
  let* exit_addrs = list_size (int_range 0 4) (int_range 0 0xffffff) in
  let* latch_addr = int_range 0 0xffffff in
  let* iv = gen_location in
  let* iv_step = map Int64.of_int (int_range (-16) 16) in
  let* iv_cond = oneofl Cond.all in
  let* iv_init = gen_rexpr in
  let* iv_bound = gen_rexpr in
  let* iv_bound_adjust = map Int64.of_int (int_range (-8) 8) in
  let* policy = gen_policy in
  let* reductions = list_size (int_range 0 3) (pair gen_location gen_redop) in
  let* privatised =
    list_size (int_range 0 3) (pair gen_rexpr (int_range 1 32))
  in
  let* live_out_gps = list_size (int_range 0 4) gen_gp in
  let* live_out_fps = list_size (int_range 0 4) gen_fp in
  let* frame_copy_bytes = int_range 0 4096 in
  return
    {
      Desc.loop_id; header_addr; preheader_addr; exit_addrs; latch_addr;
      iv; iv_step; iv_cond; iv_init; iv_bound; iv_bound_adjust; policy;
      reductions; privatised; live_out_gps; live_out_fps; frame_copy_bytes;
    }

let gen_check_desc =
  let open QCheck2.Gen in
  let* check_loop_id = int_range 0 200 in
  let gen_range =
    let* base = gen_rexpr in
    let* extent = gen_rexpr in
    let* width = oneofl [ 1; 2; 4; 8; 16 ] in
    let* written = bool in
    return { Desc.base; extent; width; written }
  in
  let* ranges = list_size (int_range 0 5) gen_range in
  return { Desc.check_loop_id; ranges }

(* a schedule whose data section carries random descriptors, with rules
   pointing at them — to_bytes/of_bytes/to_bytes must be bit-identical
   (descriptor encoding is canonical, no padding ambiguity) *)
let gen_schedule_with_descs =
  let open QCheck2.Gen in
  let* channel = oneofl [ Schedule.Profiling; Schedule.Parallelisation ] in
  let* loop_descs = list_size (int_range 0 4) gen_loop_desc in
  let* check_descs = list_size (int_range 0 4) gen_check_desc in
  let* extra_rules = list_size (int_range 0 10) gen_rule in
  return
    (let b = Schedule.builder channel in
     List.iter
       (fun d ->
          let off = Schedule.add_loop_desc b d in
          Schedule.add_rule b
            (Rule.make ~addr:d.Desc.header_addr
               ~data:(Int64.of_int off)
               ~aux:(Int64.of_int d.Desc.loop_id)
               Rule.LOOP_INIT))
       loop_descs;
     List.iter
       (fun d ->
          let off = Schedule.add_check_desc b d in
          Schedule.add_rule b
            (Rule.make ~addr:0x400000
               ~data:(Int64.of_int off)
               ~aux:(Int64.of_int d.Desc.check_loop_id)
               Rule.MEM_BOUNDS_CHECK))
       check_descs;
     List.iter (Schedule.add_rule b) extra_rules;
     Schedule.build b)

let prop_schedule_bytes_fixpoint =
  QCheck2.Test.make ~count:200
    ~name:"schedule with descriptors: encode/decode/encode bit-identical"
    gen_schedule_with_descs
    (fun s ->
       let bytes = Schedule.to_bytes s in
       let s' = Schedule.of_bytes bytes in
       Bytes.equal bytes (Schedule.to_bytes s')
       && s'.Schedule.rules = s.Schedule.rules
       && Bytes.equal s'.Schedule.data s.Schedule.data)

(* corrupt input must fail loudly, not silently misparse *)
let test_corrupt_schedule_rejected () =
  let rejected what bytes =
    Alcotest.(check bool) what true
      (match Schedule.of_bytes bytes with
       | _ -> false
       | exception Schedule.Bad_schedule _ -> true)
  in
  rejected "bad magic"
    (Bytes.of_string "NOPE\000\000\000\000\000\000\000\000\000");
  rejected "3-byte file" (Bytes.of_string "JRS");
  let b = Schedule.builder Schedule.Parallelisation in
  Schedule.add_rule b (Rule.make ~addr:0x400100 Rule.LOOP_INIT);
  let bytes = Schedule.to_bytes (Schedule.build b) in
  rejected "truncated" (Bytes.sub bytes 0 (Bytes.length bytes - 5));
  rejected "trailing byte" (Bytes.cat bytes (Bytes.make 1 '\000'));
  let with_byte off c =
    let b = Bytes.copy bytes in
    Bytes.set b off c;
    b
  in
  rejected "bad channel" (with_byte 4 '\002');
  rejected "unknown rule id" (with_byte 17 '\255');
  let count = Bytes.copy bytes in
  Bytes.set_int32_le count 5 0xffffffffl;
  rejected "rule count 0xffffffff" count

(* real schedules: the nine parallelisable programs' default-config
   schedules and adv.fission's under fission, with their encodings *)
let suite_schedules =
  lazy
    (List.map
       (fun (b, cfg) ->
          let s =
            (Janus_core.Janus.prepare ~cfg
               ~train_input:(Janus_suite.Suite.train_input b)
               (Janus_suite.Suite.compile b))
              .Janus_core.Janus.p_schedule
          in
          (s, Schedule.to_bytes s))
       ((Janus_suite.Suite.adv_fission, Janus_core.Janus.config ~fission:true ())
        :: List.map
             (fun b -> (b, Janus_core.Janus.config ()))
             Janus_core.Eval.nine))

(* [of_bytes] is total: a truncated or byte-mutated real schedule either
   decodes, to a schedule that re-encodes to exactly those bytes, or
   raises [Bad_schedule]; the originals round-trip *)
let prop_of_bytes_total =
  QCheck2.Test.make ~count:400
    ~name:"of_bytes raises only Bad_schedule under truncation and mutation"
    QCheck2.Gen.(
      triple (int_bound 1000)
        (oneof [ int_bound 33; int_bound 100_000 ])
        (int_range 0 255))
    (fun (which, where, mask) ->
       let schedules = Lazy.force suite_schedules in
       let s, good = List.nth schedules (which mod List.length schedules) in
       let k = where mod Bytes.length good in
       let mutated = Bytes.copy good in
       Bytes.set mutated k (Char.chr (Char.code (Bytes.get good k) lxor mask));
       let canonical b =
         match Schedule.of_bytes b with
         | s' -> Bytes.equal (Schedule.to_bytes s') b
         | exception Schedule.Bad_schedule _ -> true
       in
       Schedule.of_bytes good = s
       && canonical (Bytes.sub good 0 k)
       && canonical mutated)

let test_corrupt_image_rejected () =
  Alcotest.(check bool) "bad image magic" true
    (try
       ignore (Janus_vx.Image.of_bytes (Bytes.of_string "ELF!\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000"));
       false
     with Janus_vx.Image.Bad_image _ -> true)

let test_rexpr_deep_nesting () =
  (* a deep expression survives serialisation and evaluation *)
  let rec build n =
    if n = 0 then Rexpr.Const 1L else Rexpr.Add (build (n - 1), Rexpr.Const 1L)
  in
  let e = build 200 in
  let buf = Buffer.create 1024 in
  Rexpr.write buf e;
  let e' = Rexpr.read (Buffer.to_bytes buf) (ref 0) in
  let env = { Rexpr.get_reg = (fun _ -> 0L); load = (fun _ -> 0L) } in
  Alcotest.(check int64) "deep eval" 201L (Rexpr.eval env e');
  Alcotest.(check int) "size" 401 (Rexpr.size e')

let tests =
  [
    Alcotest.test_case "corrupt schedule rejected" `Quick
      test_corrupt_schedule_rejected;
    Alcotest.test_case "corrupt image rejected" `Quick
      test_corrupt_image_rejected;
    Alcotest.test_case "rexpr deep nesting" `Quick test_rexpr_deep_nesting;
    Alcotest.test_case "rexpr eval" `Quick test_rexpr_eval;
    Alcotest.test_case "rexpr has_load" `Quick test_rexpr_has_load;
    Alcotest.test_case "rule id roundtrip" `Quick test_rule_id_roundtrip;
    Alcotest.test_case "rule record roundtrip" `Quick test_rule_record_roundtrip;
    Alcotest.test_case "loop desc roundtrip" `Quick test_loop_desc_roundtrip;
    Alcotest.test_case "check desc roundtrip" `Quick test_check_desc_roundtrip;
    Alcotest.test_case "check pairs" `Quick test_check_pairs;
    Alcotest.test_case "schedule roundtrip with descriptors" `Quick
      test_schedule_roundtrip_with_desc;
    Alcotest.test_case "same-address rule order" `Quick
      test_same_address_rule_order;
    QCheck_alcotest.to_alcotest prop_rexpr_roundtrip;
    QCheck_alcotest.to_alcotest prop_rule_roundtrip;
    QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
    QCheck_alcotest.to_alcotest prop_schedule_bytes_fixpoint;
    QCheck_alcotest.to_alcotest prop_of_bytes_total;
  ]
