(* jrs_dump: human-readable dump of a rewrite schedule (.jrs).

   Prints the header, every rule in trigger-address order with its
   payload decoded (loop and check descriptors are expanded from the
   data section, register masks and operand indices are spelled out),
   and a per-rule-kind census over every kind the format defines. This
   is the schedule-side counterpart of jx_objdump.

   With --binary the schedule is cross-referenced against the
   executable it rewrites, and --verify additionally runs the full
   schedule linter (janus_verify's checks) and reports its findings.

   Usage: jrs_dump file.jrs [--binary file.jx [--verify]] *)

open Cmdliner
module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr
open Janus_vx

let pp_location ppf = function
  | Desc.Lreg r -> Reg.pp_gp ppf r
  | Desc.Lfreg r -> Reg.pp_fp ppf r
  | Desc.Lstack off -> Fmt.pf ppf "[rsp%+d]" off
  | Desc.Labs a -> Fmt.pf ppf "[0x%x]" a

let pp_redop ppf = function
  | Desc.Radd_int -> Fmt.string ppf "+ (int)"
  | Desc.Radd_f64 -> Fmt.string ppf "+ (f64)"
  | Desc.Rmul_f64 -> Fmt.string ppf "* (f64)"

let pp_policy ppf = function
  | Desc.Chunked -> Fmt.string ppf "chunked"
  | Desc.Round_robin b -> Fmt.pf ppf "round-robin(block=%d)" b
  | Desc.Doacross pct -> Fmt.pf ppf "doacross(carried=%d%%)" pct

let pp_loop_desc ppf (d : Desc.loop_desc) =
  Fmt.pf ppf "      loop %d: header=0x%x preheader=0x%x latch=0x%x@."
    d.Desc.loop_id d.Desc.header_addr d.Desc.preheader_addr d.Desc.latch_addr;
  Fmt.pf ppf "        exits: %s@."
    (String.concat ", " (List.map (Printf.sprintf "0x%x") d.Desc.exit_addrs));
  Fmt.pf ppf "        iv %a step %Ld while (iv%s %s %a)@." pp_location
    d.Desc.iv d.Desc.iv_step
    (if Int64.equal d.Desc.iv_bound_adjust 0L then ""
     else Printf.sprintf "%+Ld" d.Desc.iv_bound_adjust)
    (Cond.name d.Desc.iv_cond) Rexpr.pp d.Desc.iv_bound;
  Fmt.pf ppf "        init %a, policy %a@." Rexpr.pp d.Desc.iv_init pp_policy
    d.Desc.policy;
  List.iter
    (fun (loc, op) ->
       Fmt.pf ppf "        reduction %a %a@." pp_location loc pp_redop op)
    d.Desc.reductions;
  List.iter
    (fun (e, slot) ->
       Fmt.pf ppf "        privatise %a -> tls[%d]@." Rexpr.pp e slot)
    d.Desc.privatised;
  if d.Desc.live_out_gps <> [] then
    Fmt.pf ppf "        live-out gp: %s@."
      (String.concat ", "
         (List.map (Fmt.str "%a" Reg.pp_gp) d.Desc.live_out_gps));
  if d.Desc.live_out_fps <> [] then
    Fmt.pf ppf "        live-out fp: %s@."
      (String.concat ", "
         (List.map (Fmt.str "%a" Reg.pp_fp) d.Desc.live_out_fps));
  Fmt.pf ppf "        frame copy %d bytes@." d.Desc.frame_copy_bytes

let pp_check_desc ppf (d : Desc.check_desc) =
  Fmt.pf ppf "      check for loop %d (%d pairwise comparisons):@."
    d.Desc.check_loop_id (Desc.check_pairs d);
  List.iter
    (fun (r : Desc.array_range) ->
       Fmt.pf ppf "        %s base %a extent %a width %d@."
         (if r.Desc.written then "write" else "read ")
         Rexpr.pp r.Desc.base Rexpr.pp r.Desc.extent r.Desc.width)
    d.Desc.ranges

let gp_mask_names mask =
  let names = ref [] in
  for i = Reg.gp_count - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then
      names := Fmt.str "%a" Reg.pp_gp (Reg.gp_of_index i) :: !names
  done;
  String.concat ", " !names

let pp_fission_desc ppf (fd : Desc.fission_desc) =
  pp_loop_desc ppf fd.Desc.fd_loop;
  Fmt.pf ppf "        infra: %s@."
    (String.concat ", " (List.map (Printf.sprintf "0x%x") fd.Desc.fd_infra));
  List.iteri
    (fun i (g : Desc.fission_group) ->
       Fmt.pf ppf "        sub-loop %d (%s): %s@." i
         (if g.Desc.fg_parallel then "parallel" else "sequential")
         (String.concat ", "
            (List.map (Printf.sprintf "0x%x") g.Desc.fg_insns)))
    fd.Desc.fd_groups

(* the verifier owns descriptor validity: one that does not decode is
   shown as such, not diagnosed *)
let pp_desc decode pp ppf off =
  match decode off with
  | d -> pp ppf d
  | exception (Failure _ | Invalid_argument _) ->
    Fmt.pf ppf "      (descriptor at +%Ld does not decode)@." off

let pp_rule sched ppf (r : Rule.t) =
  Fmt.pf ppf "  0x%06x %-18s" r.Rule.addr (Rule.id_name r.Rule.id);
  (match r.Rule.id with
   | Rule.LOOP_INIT | Rule.LOOP_FINISH ->
     Fmt.pf ppf " loop %Ld, descriptor at +%Ld@." r.Rule.aux r.Rule.data;
     if r.Rule.id = Rule.LOOP_INIT then
       pp_desc (Schedule.loop_desc sched) pp_loop_desc ppf r.Rule.data
   | Rule.MEM_BOUNDS_CHECK ->
     Fmt.pf ppf " loop %Ld, descriptor at +%Ld@." r.Rule.aux r.Rule.data;
     pp_desc (Schedule.check_desc sched) pp_check_desc ppf r.Rule.data
   | Rule.LOOP_UPDATE_BOUND ->
     Fmt.pf ppf " bound is operand %Ld, compare tests iv%+Ld@." r.Rule.data
       r.Rule.aux
   | Rule.MEM_SPILL_REG | Rule.MEM_RECOVER_REG ->
     Fmt.pf ppf " loop %Ld, regs {%s}@." r.Rule.aux
       (gp_mask_names (Int64.to_int r.Rule.data))
   | Rule.MEM_PRIVATISE ->
     Fmt.pf ppf " loop %Ld -> tls[%Ld]@." r.Rule.aux r.Rule.data
   | Rule.MEM_PREFETCH ->
     Fmt.pf ppf " loop %Ld, %Ld bytes ahead@." r.Rule.aux r.Rule.data
   | Rule.LOOP_FISSION ->
     Fmt.pf ppf " loop %Ld, descriptor at +%Ld@." r.Rule.aux r.Rule.data;
     pp_desc (Schedule.fission_desc sched) pp_fission_desc ppf r.Rule.data
   | Rule.PROF_MEM_ACCESS ->
     Fmt.pf ppf " loop %Ld (%s)@." r.Rule.data
       (if Int64.equal r.Rule.aux 1L then "write" else "read")
   | _ -> Fmt.pf ppf " loop %Ld@." r.Rule.data)

let dump input binary verify =
  match Schedule.of_bytes (Cli.read_file input) with
  | exception Schedule.Bad_schedule msg ->
    Fmt.epr "jrs_dump: %s is not a rewrite schedule: %s@." input msg;
    2
  | sched ->
  (* an unusable binary is reported before any of the dump is printed *)
  let binary =
    Option.map (fun bin -> (bin, Cli.read_image ~tool:"jrs_dump" bin)) binary
  in
  let channel =
    match sched.Schedule.channel with
    | Schedule.Profiling -> "profiling"
    | Schedule.Parallelisation -> "parallelisation"
  in
  Fmt.pr "JRS rewrite schedule (%s channel)@." channel;
  Fmt.pr "  %d rules (%d bytes each), %d descriptor bytes, %d bytes total@.@."
    (List.length sched.Schedule.rules)
    Rule.record_size
    (Bytes.length sched.Schedule.data)
    (Schedule.size sched);
  List.iter (pp_rule sched Fmt.stdout) sched.Schedule.rules;
  (* census: every kind the format defines, used or not, so diffs of
     two dumps line up and absent kinds (e.g. MEM_PREFETCH without
     --prefetch) are visible as zeros *)
  Fmt.pr "@.rules by kind:@.";
  List.iter
    (fun id ->
       let n =
         List.length
           (List.filter (fun (r : Rule.t) -> r.Rule.id = id)
              sched.Schedule.rules)
       in
       Fmt.pr "  %-20s %4d@." (Rule.id_name id) n)
    Rule.all_ids;
  match binary with
  | None ->
    if verify then (
      Fmt.epr "jrs_dump: --verify needs --binary BIN.jx@.";
      2)
    else 0
  | Some (bin, image) ->
    if verify then begin
      let findings = Janus_verify.Verify.lint image sched in
      Fmt.pr "@.verification against %s:@." bin;
      if findings = [] then Fmt.pr "  clean@."
      else
        List.iter
          (fun f -> Fmt.pr "  %a@." Janus_verify.Verify.pp_finding f)
          findings;
      if Janus_verify.Verify.has_errors findings then 1 else 0
    end
    else begin
      (* cheap cross-reference: how many triggers land on instruction
         boundaries of the binary *)
      let decode = Janus_vx.Image.decode_text image in
      let dangling =
        List.filter
          (fun (r : Rule.t) -> not (Hashtbl.mem decode r.Rule.addr))
          sched.Schedule.rules
      in
      Fmt.pr "@.%d/%d triggers land on instruction boundaries of %s@."
        (List.length sched.Schedule.rules - List.length dangling)
        (List.length sched.Schedule.rules)
        bin;
      if dangling = [] then 0 else 1
    end

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jrs")

let binary_arg =
  Arg.(value & opt (some file) None
       & info [ "binary" ] ~docv:"FILE.jx"
           ~doc:"The executable the schedule rewrites; cross-references \
                 rule triggers against its instruction boundaries.")

let verify_flag =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the full schedule linter against --binary and report \
                 findings (exit 1 on errors).")

let cmd =
  Cmd.v
    (Cmd.info "jrs_dump" ~doc:"Dump a rewrite schedule in readable form")
    Term.(const dump $ input_arg $ binary_arg $ verify_flag)

let () = exit (Cmd.eval' cmd)
