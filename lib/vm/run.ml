(** The plain VM runner — "native execution" of a JX image, without any
    dynamic modification. This is the baseline all Janus configurations
    are normalised against, and the semantic oracle for tests.

    Also implements the [__par_for] intrinsic used by the guest
    compiler's auto-parallelisation mode (Fig. 11's gcc/icc bars): the
    compiler-parallelised runtime uses the same multicore cost model as
    Janus, so the comparison is apples-to-apples. *)

open Janus_vx

exception Out_of_fuel
exception Bad_pc of int

type result = {
  exit_code : int;
  output : string;
  cycles : int;
  icount : int;
  mem_digest : string;
}

(* Digest of the architecturally visible final memory: globals (data +
   bss) and the allocated prefix of the heap. Stacks and TLS are
   thread-private scratch and excluded, so the digest is directly
   comparable between native, DBM-sequential and parallel executions
   of one program. Computed once at end of run — never on a hot path. *)
let mem_digest (ctx : Machine.t) =
  let mem = ctx.Machine.mem in
  (* the first [used r] bytes of region [name], as the guest sees them *)
  let contents name used =
    match Memory.region_by_name mem name with
    | Some r ->
      let n = max 0 (min r.Memory.size (used r)) in
      Bytes.unsafe_to_string (Memory.snapshot mem r.Memory.start n)
    | None -> ""
  in
  let whole r = r.Memory.size in
  let below_brk r = ctx.Machine.brk - r.Memory.start in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [ contents "data" whole; contents "bss" whole;
            contents "heap" below_brk ]))

(* Return-address sentinel: no valid code lives at address 0. *)
let sentinel = 0

let default_fuel = 200_000_000

(** Execute starting at [ctx.rip] until the program halts or control
    returns to the sentinel address.

    Fetch is allocation-free: the instruction, its length and its
    precomputed cost come from the program's decoded text and library
    tables, read in place, and the [__par_for] intrinsic test is one
    compare against the address resolved at load. Only cold addresses
    (PLT stubs, bad pcs) look their table up through
    {!Program.code_at}. *)
let rec run_from prog ctx ~fuel =
  let remaining = ref fuel in
  let continue = ref true in
  let text = prog.Program.text in
  let text_insns = text.Code.insns in
  let text_lens = text.Code.lens in
  let text_costs = text.Code.costs in
  let text_n = Bytes.length text_lens in
  let lib = prog.Program.lib.Libcalls.code in
  let lib_insns = lib.Code.insns in
  let lib_lens = lib.Code.lens in
  let lib_costs = lib.Code.costs in
  let lib_n = Bytes.length lib_lens in
  while !continue && not ctx.Machine.halted do
    if !remaining <= 0 then raise Out_of_fuel;
    decr remaining;
    let addr = ctx.Machine.rip in
    let toff = addr - Layout.text_base in
    let loff = addr - Layout.lib_base in
    if toff >= 0 && toff < text_n
       && Bytes.unsafe_get text_lens toff <> '\000'
    then begin
      let len = Char.code (Bytes.unsafe_get text_lens toff) in
      match
        Semantics.exec_costed ctx
          (Array.unsafe_get text_insns toff)
          ~len
          ~cost:(Char.code (Bytes.unsafe_get text_costs toff))
      with
      | Semantics.Fall -> ctx.Machine.rip <- addr + len
      | Semantics.Jump -> if ctx.Machine.rip = sentinel then continue := false
      | Semantics.Stop -> continue := false
    end
    else if loff >= 0 && loff < lib_n
            && Bytes.unsafe_get lib_lens loff <> '\000'
    then begin
      let len = Char.code (Bytes.unsafe_get lib_lens loff) in
      match
        Semantics.exec_costed ctx
          (Array.unsafe_get lib_insns loff)
          ~len
          ~cost:(Char.code (Bytes.unsafe_get lib_costs loff))
      with
      | Semantics.Fall -> ctx.Machine.rip <- addr + len
      | Semantics.Jump -> if ctx.Machine.rip = sentinel then continue := false
      | Semantics.Stop -> continue := false
    end
    else if addr = prog.Program.par_for_addr then begin
      (* intrinsic: run the compiler-parallelised loop, then return to
         the caller via the address the call pushed *)
      par_for prog ctx ~fuel:!remaining;
      ctx.Machine.rip <- Int64.to_int (Semantics.pop ctx)
    end
    else begin
      let code = Program.code_at prog addr in
      match Code.find code addr with
      | None -> raise (Bad_pc addr)
      | Some (insn, len) -> (
        match Semantics.exec ctx insn ~len with
        | Semantics.Fall -> ctx.Machine.rip <- addr + len
        | Semantics.Jump ->
          if ctx.Machine.rip = sentinel then continue := false
        | Semantics.Stop -> continue := false)
    end
  done

(** Run the function at [addr] to completion in [ctx] (pushes a
    sentinel return address). *)
and call_function prog ctx addr ~fuel =
  Semantics.push ctx (Int64.of_int sentinel);
  ctx.Machine.rip <- addr;
  run_from prog ctx ~fuel

(* __par_for(fn=rdi, lo=rsi, hi=rdx, nthreads=rcx): execute
   fn(lo_t, hi_t) on each virtual thread over a chunked partition. *)
and par_for prog ctx ~fuel =
  let fn = Int64.to_int (Machine.get ctx Reg.RDI) in
  let lo = Int64.to_int (Machine.get ctx Reg.RSI) in
  let hi = Int64.to_int (Machine.get ctx Reg.RDX) in
  let threads = max 1 (Int64.to_int (Machine.get ctx Reg.RCX)) in
  let total = max 0 (hi - lo) in
  let threads = min threads (max 1 total) in
  Program.add_thread_regions prog ~threads;
  let chunk = (total + threads - 1) / threads in
  let max_child = ref 0 in
  for t = 0 to threads - 1 do
    let tlo = lo + (t * chunk) in
    let thi = min hi (tlo + chunk) in
    if tlo < thi then begin
      let child = Machine.fork ctx in
      Machine.set child Reg.RSP (Int64.of_int (Layout.tstack_top t - 64));
      Machine.set child Reg.RDI (Int64.of_int tlo);
      Machine.set child Reg.RSI (Int64.of_int thi);
      call_function prog child fn ~fuel;
      ctx.Machine.icount <- ctx.Machine.icount + child.Machine.icount;
      if child.Machine.cycles > !max_child then
        max_child := child.Machine.cycles
    end
  done;
  ctx.Machine.cycles <-
    ctx.Machine.cycles + Cost.loop_init_base
    + (threads * (Cost.thread_signal + Cost.thread_context_copy))
    + !max_child + Cost.loop_finish_base
    + (threads * Cost.loop_finish_per_thread)

let fresh_context prog =
  let ctx = Machine.create prog.Program.mem in
  Machine.set ctx Reg.RSP (Int64.of_int (Layout.stack_top - 64));
  ctx.Machine.rip <- prog.Program.image.Image.entry;
  ctx

(** Load and run an image natively. *)
let run ?(fuel = default_fuel) ?(input = []) ?(model_cache = false) image =
  let prog = Program.load ~code:(Code.of_image image) image in
  let ctx = fresh_context prog in
  ctx.Machine.model_cache <- model_cache;
  List.iter (fun v -> Queue.push v ctx.Machine.input) input;
  run_from prog ctx ~fuel;
  {
    exit_code = ctx.Machine.exit_code;
    output = Buffer.contents ctx.Machine.out;
    cycles = ctx.Machine.cycles;
    icount = ctx.Machine.icount;
    mem_digest = mem_digest ctx;
  }
