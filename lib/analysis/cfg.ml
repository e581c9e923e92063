(** CFG recovery from a stripped JX image: function discovery from the
    entry point and direct call targets, basic-block partitioning, and
    successor/predecessor edges. Indirect control flow is marked as
    undetermined, as in the paper (§II-G). *)

open Janus_vx

type insn_info = { addr : int; insn : Insn.t; len : int }

type bblock = {
  baddr : int;
  insns : insn_info array;
  mutable succs : int list;  (* block start addresses within the function *)
  mutable preds : int list;
}

type func = {
  fentry : int;
  mutable blocks : bblock list;         (* sorted by address *)
  block_at : (int, bblock) Hashtbl.t;   (* start addr -> block *)
  mutable irregular : bool;             (* has indirect jumps/calls *)
  mutable callees : int list;           (* direct local call targets *)
  mutable excall_sites : (int * string) list;  (* call addr -> plt name *)
  mutable has_syscall : bool;
}

type t = {
  image : Image.t;
  code : Code.t;                        (* the decoded text *)
  funcs : (int, func) Hashtbl.t;        (* entry addr -> func *)
  entry : int;
}

let fetch t addr = Code.find t.code addr

let block_end b =
  let last = b.insns.(Array.length b.insns - 1) in
  last.addr + last.len

(* the control-flow role of an instruction within a function body *)
type flow =
  | Seq
  | Branch of int list * bool  (* targets, falls_through *)
  | CallLocal of int           (* direct call to a local function *)
  | CallPlt of string
  | CallUnknown                (* indirect call *)
  | Stop                       (* ret / hlt / exit / indirect jmp *)
  | IndirectJmp

let flow_of image insn =
  match insn with
  | Insn.Jmp (Insn.Direct a) -> Branch ([ a ], false)
  | Insn.Jmp (Insn.Indirect _) -> IndirectJmp
  | Insn.Jcc (_, a) -> Branch ([ a ], true)
  | Insn.Call (Insn.Direct a) ->
    if Layout.in_plt a then
      (match Image.external_of_addr image a with
       | Some name -> CallPlt name
       | None -> CallUnknown)
    else CallLocal a
  | Insn.Call (Insn.Indirect _) -> CallUnknown
  | Insn.Ret | Insn.Hlt -> Stop
  | Insn.Syscall n when n = Insn.sys_exit -> Stop
  | _ -> Seq

(* explore one function: returns visited addr set, leaders, and facts *)
let explore t entry =
  let visited = Hashtbl.create 64 in
  let leaders = Hashtbl.create 16 in
  let irregular = ref false in
  let callees = ref [] in
  let excalls = ref [] in
  let has_syscall = ref false in
  Hashtbl.replace leaders entry ();
  let work = Queue.create () in
  Queue.push entry work;
  while not (Queue.is_empty work) do
    let addr = Queue.pop work in
    if not (Hashtbl.mem visited addr) then begin
      match fetch t addr with
      | None -> ()  (* outside text (e.g. plt): treated as opaque *)
      | Some (insn, len) ->
        Hashtbl.replace visited addr (insn, len);
        let next = addr + len in
        (match insn with
         | Insn.Syscall _ -> has_syscall := true
         | _ -> ());
        (match flow_of t.image insn with
         | Seq -> Queue.push next work
         | Branch (targets, falls) ->
           List.iter
             (fun a ->
                Hashtbl.replace leaders a ();
                Queue.push a work)
             targets;
           if falls then begin
             Hashtbl.replace leaders next ();
             Queue.push next work
           end
         | CallLocal target ->
           if not (List.mem target !callees) then callees := target :: !callees;
           Hashtbl.replace leaders next ();
           Queue.push next work
         | CallPlt name ->
           excalls := (addr, name) :: !excalls;
           Hashtbl.replace leaders next ();
           Queue.push next work
         | CallUnknown ->
           irregular := true;
           Hashtbl.replace leaders next ();
           Queue.push next work
         | IndirectJmp -> irregular := true
         | Stop -> ())
    end
  done;
  (visited, leaders, !irregular, !callees, !excalls, !has_syscall)

let build_func t entry =
  let visited, leaders, irregular, callees, excalls, has_syscall =
    explore t entry
  in
  (* group instructions into blocks *)
  let sorted =
    Hashtbl.fold (fun a (i, l) acc -> { addr = a; insn = i; len = l } :: acc)
      visited []
    |> List.sort (fun a b -> compare a.addr b.addr)
  in
  let blocks = ref [] in
  let current = ref [] in
  let flush () =
    match List.rev !current with
    | [] -> ()
    | first :: _ as insns ->
      blocks :=
        { baddr = first.addr; insns = Array.of_list insns; succs = []; preds = [] }
        :: !blocks;
      current := []
  in
  List.iter
    (fun ii ->
       (* a leader starts a new block *)
       if Hashtbl.mem leaders ii.addr then flush ();
       current := ii :: !current;
       (* control flow ends the block *)
       match flow_of t.image ii.insn with
       | Seq -> ()
       | _ -> flush ())
    sorted;
  flush ();
  let blocks = List.sort (fun a b -> compare a.baddr b.baddr) !blocks in
  let block_at = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace block_at b.baddr b) blocks;
  (* successor edges *)
  List.iter
    (fun b ->
       let last = b.insns.(Array.length b.insns - 1) in
       let next = last.addr + last.len in
       let targets =
         match flow_of t.image last.insn with
         | Seq -> [ next ]  (* fallthrough into a leader *)
         | Branch (ts, falls) -> if falls then ts @ [ next ] else ts
         | CallLocal _ | CallPlt _ | CallUnknown -> [ next ]
         | Stop | IndirectJmp -> []
       in
       b.succs <- List.filter (Hashtbl.mem block_at) targets)
    blocks;
  List.iter
    (fun b ->
       List.iter
         (fun s ->
            let sb = Hashtbl.find block_at s in
            sb.preds <- b.baddr :: sb.preds)
         b.succs)
    blocks;
  ({ fentry = entry; blocks; block_at; irregular; callees;
     excall_sites = excalls; has_syscall },
   callees)

(** Recover the whole program: the entry function plus everything
    reachable through direct calls. *)
let recover ~code (image : Image.t) =
  let t = { image; code; funcs = Hashtbl.create 16; entry = image.entry } in
  let work = Queue.create () in
  Queue.push image.entry work;
  while not (Queue.is_empty work) do
    let entry = Queue.pop work in
    if not (Hashtbl.mem t.funcs entry) then begin
      let f, callees = build_func t entry in
      Hashtbl.replace t.funcs entry f;
      List.iter (fun c -> Queue.push c work) callees
    end
  done;
  t

let func t entry = Hashtbl.find_opt t.funcs entry

let all_funcs t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.funcs []
  |> List.sort (fun a b -> compare a.fentry b.fentry)

let pp_func ppf f =
  Fmt.pf ppf "func 0x%x%s:@." f.fentry (if f.irregular then " (irregular)" else "");
  List.iter
    (fun b ->
       Fmt.pf ppf "  block 0x%x -> [%a]@." b.baddr
         (Fmt.list ~sep:Fmt.comma (fun ppf a -> Fmt.pf ppf "0x%x" a))
         b.succs)
    f.blocks
