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
  let region name =
    match Memory.region_by_name ctx.Machine.mem name with
    | Some r ->
      Memory.materialize r r.Memory.size;
      Bytes.unsafe_to_string r.Memory.bytes
    | None -> ""
  in
  let heap =
    match Memory.region_by_name ctx.Machine.mem "heap" with
    | Some r ->
      let used = max 0 (min r.Memory.size (ctx.Machine.brk - r.Memory.start)) in
      Memory.materialize r used;
      Bytes.sub_string r.Memory.bytes 0 used
    | None -> ""
  in
  Digest.to_hex (Digest.string (region "data" ^ region "bss" ^ heap))

(* Return-address sentinel: no valid code lives at address 0. *)
let sentinel = 0

let default_fuel = 200_000_000

(** Execute starting at [ctx.rip] until the program halts or control
    returns to the sentinel address.

    Fetch is allocation-free on app-text and library code: the
    instruction, its length and its precomputed cost come from the
    program's flat side tables, and the [__par_for] intrinsic test is
    one compare against the address resolved at load. Only genuinely
    cold addresses (unresolved PLT slots, bad pcs) fall back to
    {!Program.fetch}. *)
let rec run_from prog ctx ~fuel =
  let remaining = ref fuel in
  let continue = ref true in
  let text_insn = prog.Program.text_insn in
  let text_len = prog.Program.text_len in
  let text_cost = prog.Program.text_cost in
  let text_n = Array.length text_len in
  let lib_insn = prog.Program.lib_insn in
  let lib_len = prog.Program.lib_len in
  let lib_cost = prog.Program.lib_cost in
  let lib_n = Array.length lib_len in
  while !continue && not ctx.Machine.halted do
    if !remaining <= 0 then raise Out_of_fuel;
    decr remaining;
    let addr = ctx.Machine.rip in
    let toff = addr - Layout.text_base in
    let loff = addr - Layout.lib_base in
    if toff >= 0 && toff < text_n && Array.unsafe_get text_len toff <> 0
    then begin
      let len = Array.unsafe_get text_len toff in
      match
        Semantics.exec_costed ctx
          (Array.unsafe_get text_insn toff)
          ~len
          ~cost:(Array.unsafe_get text_cost toff)
      with
      | Semantics.Fall -> ctx.Machine.rip <- addr + len
      | Semantics.Goto a ->
        if a = sentinel then continue := false else ctx.Machine.rip <- a
      | Semantics.Stop -> continue := false
    end
    else if loff >= 0 && loff < lib_n && Array.unsafe_get lib_len loff <> 0
    then begin
      let len = Array.unsafe_get lib_len loff in
      match
        Semantics.exec_costed ctx
          (Array.unsafe_get lib_insn loff)
          ~len
          ~cost:(Array.unsafe_get lib_cost loff)
      with
      | Semantics.Fall -> ctx.Machine.rip <- addr + len
      | Semantics.Goto a ->
        if a = sentinel then continue := false else ctx.Machine.rip <- a
      | Semantics.Stop -> continue := false
    end
    else if addr = prog.Program.par_for_addr then begin
      (* intrinsic: run the compiler-parallelised loop, then return to
         the caller via the address the call pushed *)
      par_for prog ctx ~fuel:!remaining;
      ctx.Machine.rip <- Int64.to_int (Semantics.pop ctx)
    end
    else begin
      match Program.fetch prog addr with
      | None -> raise (Bad_pc addr)
      | Some (insn, len) -> (
        match Semantics.exec ctx insn ~len with
        | Semantics.Fall -> ctx.Machine.rip <- addr + len
        | Semantics.Goto a ->
          if a = sentinel then continue := false else ctx.Machine.rip <- a
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
  let prog = Program.load image in
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
