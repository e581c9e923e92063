(** A loaded guest program: decoded code for application text, PLT
    stubs and runtime-resolved library code, plus an initialised guest
    memory.

    Every code range is a {!Code.t} (instruction, encoded length,
    precomputed {!Cost.of_insn} per byte offset), so the executors'
    fetch path is a few loads with no option allocation and no
    per-instruction cost match. The text table comes from the caller,
    who decodes the image once however many times it is loaded. The
    [__par_for] intrinsic's PLT slot address is resolved at load
    ({!par_for_addr}), turning the interpreters' per-step "is this an
    intrinsic?" string lookup into one integer compare. *)

open Janus_vx

type t = {
  image : Image.t;
  lib : Libcalls.t;
  plt : string array;  (* slot index -> external name *)
  mem : Memory.t;
  text : Code.t;
  stubs : Code.t;      (* PLT slot i at offset i * plt_slot: Jmp to its entry *)
  par_for_addr : int;  (* __par_for's PLT slot address, or -1 *)
}

(* The library fragments are immutable once built (code table, entry
   alist, data bytes are never written after construction — the data
   bytes are *copied* into each program's libdata region), so one
   instance can back every loaded program. Built eagerly at module
   init: domain-safe without a lazy. *)
let shared_lib = Libcalls.build ()

let load ~(code : Code.t) (image : Image.t) =
  if code.Code.base <> Layout.text_base
     || Code.size code <> Bytes.length image.text
  then invalid_arg "Program.load: the code table does not span the text";
  let lib = shared_lib in
  let plt = Array.of_list image.externals in
  let par_for_addr = ref (-1) in
  let stubs = ref [] in
  Array.iteri
    (fun i name ->
      if String.equal name Libcalls.intrinsic_par_for then
        par_for_addr := Layout.plt_slot_addr i
      else
        match Libcalls.entry lib name with
        | Some e ->
          stubs :=
            (i * Layout.plt_slot, Insn.Jmp (Insn.Direct e), Layout.plt_slot)
            :: !stubs
        | None -> ())
    plt;
  let stubs =
    Code.of_insns ~base:Layout.plt_base
      ~size:(Array.length plt * Layout.plt_slot) !stubs
  in
  let mem = Memory.create () in
  (* highest region first, so the page table grows once *)
  ignore
    (Memory.add_region mem ~name:"stack"
       ~start:(Layout.stack_top - Layout.stack_size)
       ~size:(Layout.stack_size + 8));
  ignore
    (Memory.add_region mem ~name:"libdata" ~start:Layout.lib_data_base
       ~size:(max (Bytes.length lib.data) 8));
  Memory.blit mem ~addr:Layout.lib_data_base lib.data;
  ignore
    (Memory.add_region mem ~name:"heap" ~start:Layout.heap_base
       ~size:(Layout.heap_limit - Layout.heap_base));
  if image.bss_size > 0 then
    ignore
      (Memory.add_region mem ~name:"bss" ~start:Layout.bss_base
         ~size:image.bss_size);
  ignore
    (Memory.add_region mem ~name:"data" ~start:Layout.data_base
       ~size:(max (Bytes.length image.data) 8));
  Memory.blit mem ~addr:Layout.data_base image.data;
  { image; lib; plt; mem; text = code; stubs; par_for_addr = !par_for_addr }

let add_thread_regions t ~threads =
  (* highest first, as at load: one page-table growth at most *)
  for i = threads - 1 downto 0 do
    let top = Layout.tstack_top i in
    if Memory.region_by_name t.mem (Printf.sprintf "tstack%d" i) = None then begin
      ignore
        (Memory.add_region t.mem
           ~name:(Printf.sprintf "tstack%d" i)
           ~start:(top - Layout.tstack_size)
           ~size:(Layout.tstack_size + 8));
      ignore
        (Memory.add_region t.mem
           ~name:(Printf.sprintf "tls%d" i)
           ~start:(Layout.tls_base i) ~size:Layout.tls_size)
    end
  done

let code_at t addr =
  if Layout.in_text addr then t.text
  else if Layout.in_plt addr then t.stubs
  else t.lib.Libcalls.code

(** The external name whose PLT slot is [addr], if any. *)
let plt_name t addr =
  if Layout.in_plt addr then begin
    let i = Layout.plt_index_of_addr addr in
    if i < Array.length t.plt && addr = Layout.plt_slot_addr i then
      Some t.plt.(i)
    else None
  end
  else None
