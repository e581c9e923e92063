(** Symbolic execution of VX64 code over {!Sympoly} values.

    Drives both the whole-function pass and the per-loop pass of the
    analyser: registers and stack slots become polynomials over atoms;
    loads forward from in-flight stores (so spilled induction variables
    are still recognised); control-flow merges produce phi atoms unless
    both sides agree — the paper's duplicated-path elimination. *)

open Janus_vx
open Sympoly

type value = Vint of Sympoly.t | Vfloat of fexpr

type cmp_info =
  | Cmp_int of Sympoly.t * Sympoly.t * int  (* operands + compare insn addr *)
  | Cmp_float of fexpr * fexpr

type store_entry = {
  s_addr : Sympoly.t;
  s_bytes : int;
  s_val : value;
}

type state = {
  regs : Sympoly.t array;
  fregs : fexpr array;
  mutable cmp : cmp_info option;
  mutable stores : store_entry list;  (* forwarding table *)
}

type access = {
  a_addr : Sympoly.t;     (* symbolic byte address *)
  a_bytes : int;
  a_write : bool;
  a_insn : int;           (* instruction address *)
  a_value : value option; (* stored value, for reduction analysis *)
}

(** How a fresh unknown should be named (whole-function vs loop pass). *)
type naming = {
  name_loc : loc -> atom;   (* initial value of a location *)
  named : unit -> (loc * atom) list;  (* locations named so far *)
}

type ctx = {
  naming : naming;
  mutable st : state;
  mutable accesses : access list;
  mutable loads : (Sympoly.t * int * value * atom) list;  (* memo: addr, bytes, val, atom *)
  mutable load_addrs : (int * Sympoly.t) list;  (* load atom id -> address poly *)
  mutable dirty : (Sympoly.t * int) list;  (* locations written on some path *)
  merge_srcs : (int, value list) Hashtbl.t;  (* merge atom -> its inputs *)
  mutable all_cmps : cmp_info list;  (* every flag-setting comparison *)
  mutable gen : int;                  (* bumped at calls: globals may change *)
  mutable excalls : (int * string) list;
  mutable calls : (int * int) list;   (* call site, target *)
  mutable has_syscall : bool;
  mutable has_indirect : bool;
  mutable has_unknown_store : bool;
  rsp0 : atom;              (* works with naming: atom of entry RSP *)
}

let make_naming mk =
  let memo = Hashtbl.create 32 in
  {
    name_loc =
      (fun l ->
         match Hashtbl.find_opt memo l with
         | Some a -> a
         | None ->
           let a = fresh_atom (mk l) in
           Hashtbl.replace memo l a;
           a);
    named = (fun () -> Hashtbl.fold (fun l a acc -> (l, a) :: acc) memo []);
  }

let entry_naming () = make_naming (fun l -> Entry l)
let header_naming lid = make_naming (fun l -> Header (lid, l))

let create naming =
  let rsp0 = naming.name_loc (Rloc Reg.RSP) in
  let regs =
    Array.init Reg.gp_count (fun i ->
        if i = Reg.gp_index Reg.RSP then of_atom rsp0
        else of_atom (naming.name_loc (Rloc (Reg.gp_of_index i))))
  in
  let fregs =
    Array.init Reg.fp_count (fun i ->
        Fatom (naming.name_loc (Floc (Reg.fp_of_index i))))
  in
  {
    naming;
    st = { regs; fregs; cmp = None; stores = [] };
    accesses = [];
    loads = [];
    load_addrs = [];
    dirty = [];
    merge_srcs = Hashtbl.create 32;
    all_cmps = [];
    gen = 0;
    excalls = [];
    calls = [];
    has_syscall = false;
    has_indirect = false;
    has_unknown_store = false;
    rsp0;
  }

let get_reg ctx r = ctx.st.regs.(Reg.gp_index r)
let set_reg ctx r v = ctx.st.regs.(Reg.gp_index r) <- v
let get_freg ctx r = ctx.st.fregs.(Reg.fp_index r)
let set_freg ctx r v = ctx.st.fregs.(Reg.fp_index r) <- v

(** Classify a symbolic address: is it a pure stack slot, a constant
    (global/absolute), or something else? *)
type addr_class =
  | Astack of int      (* offset from the entry RSP *)
  | Aconst of int      (* absolute address *)
  | Aother

let classify_addr ctx p =
  match to_const p with
  | Some c -> Aconst (Int64.to_int c)
  | None ->
    (match coeff_of p (fun a -> a.aid = ctx.rsp0.aid) with
     | Some (c, _) when Int64.equal c 1L ->
       let rest = without p (fun a -> a.aid = ctx.rsp0.aid) in
       (match to_const rest with
        | Some off -> Astack (Int64.to_int off)
        | None -> Aother)
     | _ -> Aother)

(* can two symbolic ranges possibly overlap? *)
let may_overlap ctx a1 b1 a2 b2 =
  let diff = sub a1 a2 in
  match to_const diff with
  | Some d ->
    let d = Int64.to_int d in
    d > -b2 && d < b1
  | None ->
    (* stack and non-stack never alias; distinct unknowns may *)
    (match classify_addr ctx a1, classify_addr ctx a2 with
     | Astack _, (Aconst _ | Aother) | (Aconst _ | Aother), Astack _ -> false
     | _ -> true)

let addr_of_mem ctx (m : Operand.mem) =
  let base =
    match m.base with Some r -> get_reg ctx r | None -> zero
  in
  let index =
    match m.index with
    | Some r -> scale (Int64.of_int m.scale) (get_reg ctx r)
    | None -> zero
  in
  add (add base index) (const (Int64.of_int m.disp))

(* record an access and perform a symbolic load *)
let load ctx ~insn_addr addr bytes : value =
  ctx.accesses <-
    { a_addr = addr; a_bytes = bytes; a_write = false; a_insn = insn_addr;
      a_value = None }
    :: ctx.accesses;
  (* forward from an exactly-matching store *)
  let forwarded =
    List.find_opt
      (fun s -> s.s_bytes = bytes && equal s.s_addr addr)
      ctx.st.stores
  in
  match forwarded with
  | Some s -> s.s_val
  | None ->
    (* memoised load atom *)
    (match
       List.find_opt (fun (a, b, _, _) -> b = bytes && equal a addr) ctx.loads
     with
     | Some (_, _, v, _) -> v
     | None ->
       let is_dirty =
         List.exists
           (fun (da, db) -> may_overlap ctx addr bytes da db)
           ctx.dirty
       in
       (* name the initial contents of stable locations so that
          spilled IVs chain across iterations; never resurrect a
          location written on some path or possibly changed by a call *)
       let v, at =
         match classify_addr ctx addr with
         | Astack off when not is_dirty ->
           let a = ctx.naming.name_loc (Sloc off) in
           (Vint (of_atom a), a)
         | Aconst abs when not is_dirty && ctx.gen = 0 ->
           let a = ctx.naming.name_loc (Gloc abs) in
           (Vint (of_atom a), a)
         | Astack _ | Aconst _ | Aother ->
           let a = fresh_atom (Load insn_addr) in
           (Vint (of_atom a), a)
       in
       ctx.loads <- (addr, bytes, v, at) :: ctx.loads;
       ctx.load_addrs <- (at.aid, addr) :: ctx.load_addrs;
       v)

let loadf ctx ~insn_addr addr bytes : fexpr =
  match load ctx ~insn_addr addr bytes with
  | Vfloat f -> f
  | Vint p ->
    (* reinterpret the integer-named cell as a float value *)
    (match atoms p with
     | [ a ] when equal p (of_atom a) -> Fatom a
     | _ -> Funknown (fresh_atom (Fval insn_addr)))

let store ctx ~insn_addr addr bytes v =
  ctx.accesses <-
    { a_addr = addr; a_bytes = bytes; a_write = true; a_insn = insn_addr;
      a_value = Some v }
    :: ctx.accesses;
  (match classify_addr ctx addr with
   | Aother ->
     (* writing through an unknown pointer *)
     ctx.has_unknown_store <- true
   | Astack _ | Aconst _ -> ());
  (* kill overlapping forwards and memoised loads *)
  ctx.st.stores <-
    { s_addr = addr; s_bytes = bytes; s_val = v }
    :: List.filter
         (fun s -> not (may_overlap ctx addr bytes s.s_addr s.s_bytes))
         ctx.st.stores;
  ctx.loads <-
    List.filter
      (fun (a, b, _, _) -> not (may_overlap ctx addr bytes a b))
      ctx.loads

(* operand values *)

let value_int ctx ~insn_addr = function
  | Operand.Reg r -> get_reg ctx r
  | Operand.Imm v -> const v
  | Operand.Mem m -> begin
      match load ctx ~insn_addr (addr_of_mem ctx m) 8 with
      | Vint p -> p
      | Vfloat _ -> of_atom (fresh_atom (Opaque insn_addr))
    end

let store_int ctx ~insn_addr op v =
  match op with
  | Operand.Reg r -> set_reg ctx r v
  | Operand.Mem m -> store ctx ~insn_addr (addr_of_mem ctx m) 8 (Vint v)
  | Operand.Imm _ -> ()

(* clobber effects of a call with unknown or summarised body *)
(* an opaque result that remembers its operands in [merge_srcs], so
   [mentions] still sees dependences through non-affine computations
   (a multiply-accumulate must not look like a privatisable scalar) *)
let opaque_from ctx ia vs =
  let at = fresh_atom (Opaque ia) in
  Hashtbl.replace ctx.merge_srcs at.aid vs;
  of_atom at

let clobber_call ctx =
  ctx.gen <- ctx.gen + 1;
  List.iter
    (fun r -> set_reg ctx r (of_atom (fresh_atom (Opaque 0))))
    Reg.caller_saved;
  for i = 0 to 7 do
    set_freg ctx (Reg.XMM i) (Funknown (fresh_atom (Opaque 0)))
  done;
  (* the callee may write reachable memory: drop non-stack forwards *)
  ctx.st.stores <-
    List.filter
      (fun s -> match classify_addr ctx s.s_addr with
         | Astack _ -> true
         | Aconst _ | Aother -> false)
      ctx.st.stores;
  ctx.loads <-
    List.filter
      (fun (a, _, _, _) -> match classify_addr ctx a with
         | Astack _ -> true
         | Aconst _ | Aother -> false)
      ctx.loads;
  ctx.st.cmp <- None

(** Execute one instruction symbolically (control flow is the caller's
    responsibility). *)
let exec ctx (ii : Cfg.insn_info) =
  let ia = ii.addr in
  match ii.insn with
  | Insn.Nop | Insn.Hlt -> ()
  | Insn.Mov (dst, src) -> begin
      match dst with
      | Operand.Reg r -> begin
          (* register moves preserve float-ness through memory *)
          match src with
          | Operand.Mem m -> begin
              match load ctx ~insn_addr:ia (addr_of_mem ctx m) 8 with
              | Vint p -> set_reg ctx r p
              | Vfloat _ -> set_reg ctx r (of_atom (fresh_atom (Opaque ia)))
            end
          | _ -> set_reg ctx r (value_int ctx ~insn_addr:ia src)
        end
      | Operand.Mem m ->
        let v =
          match src with
          | Operand.Reg r -> Vint (get_reg ctx r)
          | Operand.Imm i -> Vint (const i)
          | Operand.Mem m2 ->
            load ctx ~insn_addr:ia (addr_of_mem ctx m2) 8
        in
        store ctx ~insn_addr:ia (addr_of_mem ctx m) 8 v
      | Operand.Imm _ -> ()
    end
  | Insn.Lea (r, m) -> set_reg ctx r (addr_of_mem ctx m)
  | Insn.Alu (op, dst, src) ->
    let a =
      match dst with
      | Operand.Reg r -> get_reg ctx r
      | Operand.Mem m -> begin
          match load ctx ~insn_addr:ia (addr_of_mem ctx m) 8 with
          | Vint p -> p
          | Vfloat _ -> of_atom (fresh_atom (Opaque ia))
        end
      | Operand.Imm _ -> zero
    in
    let b = value_int ctx ~insn_addr:ia src in
    let result =
      match op with
      | Insn.Add -> add a b
      | Insn.Sub -> sub a b
      | Insn.Imul -> begin
          match to_const a, to_const b with
          | None, None -> opaque_from ctx ia [ Vint a; Vint b ]
          | _ -> mul a b
        end
      | Insn.Shl -> begin
          match to_const b with
          | Some k when Int64.compare k 0L >= 0 && Int64.compare k 62L <= 0 ->
            scale (Int64.shift_left 1L (Int64.to_int k)) a
          | _ -> opaque_from ctx ia [ Vint a; Vint b ]
        end
      | Insn.And | Insn.Or | Insn.Xor | Insn.Shr | Insn.Sar -> begin
          (* xor r, r is a common zero idiom *)
          match op, dst, src with
          | Insn.Xor, Operand.Reg r1, Operand.Reg r2 when Reg.equal_gp r1 r2 ->
            zero
          | _ -> begin
              match to_const a, to_const b with
              | Some ka, Some kb ->
                const
                  (match op with
                   | Insn.And -> Int64.logand ka kb
                   | Insn.Or -> Int64.logor ka kb
                   | Insn.Xor -> Int64.logxor ka kb
                   | Insn.Shr -> Int64.shift_right_logical ka (Int64.to_int kb land 63)
                   | Insn.Sar -> Int64.shift_right ka (Int64.to_int kb land 63)
                   | _ -> 0L)
              | _ -> opaque_from ctx ia [ Vint a; Vint b ]
            end
        end
    in
    ctx.st.cmp <- Some (Cmp_int (result, zero, ia));
    store_int ctx ~insn_addr:ia dst result
  | Insn.Neg o ->
    let v = neg (value_int ctx ~insn_addr:ia o) in
    ctx.st.cmp <- Some (Cmp_int (v, zero, ia));
    store_int ctx ~insn_addr:ia o v
  | Insn.Not o ->
    let v = value_int ctx ~insn_addr:ia o in
    store_int ctx ~insn_addr:ia o (opaque_from ctx ia [ Vint v ])
  | Insn.Idiv o ->
    (* VX64 idiv reads RAX and the divisor only; RDX is output *)
    let d = value_int ctx ~insn_addr:ia o in
    let rax = get_reg ctx Reg.RAX in
    set_reg ctx Reg.RAX (opaque_from ctx ia [ Vint rax; Vint d ]);
    set_reg ctx Reg.RDX (opaque_from ctx ia [ Vint rax; Vint d ])
  | Insn.Cmp (a, b) ->
    let pa = value_int ctx ~insn_addr:ia a in
    let pb = value_int ctx ~insn_addr:ia b in
    ctx.st.cmp <- Some (Cmp_int (pa, pb, ia));
    ctx.all_cmps <- Cmp_int (pa, pb, ia) :: ctx.all_cmps
  | Insn.Test (a, b) ->
    ignore (value_int ctx ~insn_addr:ia a);
    ignore (value_int ctx ~insn_addr:ia b);
    ctx.st.cmp <- None
  | Insn.Jmp (Insn.Indirect o) ->
    ignore (value_int ctx ~insn_addr:ia o);
    ctx.has_indirect <- true
  | Insn.Jmp (Insn.Direct _) | Insn.Jcc _ -> ()
  | Insn.Call (Insn.Direct a) ->
    if Layout.in_plt a then ctx.excalls <- (ia, "") :: ctx.excalls
    else ctx.calls <- (ia, a) :: ctx.calls;
    clobber_call ctx
  | Insn.Call (Insn.Indirect o) ->
    ignore (value_int ctx ~insn_addr:ia o);
    ctx.has_indirect <- true;
    clobber_call ctx
  | Insn.Ret -> ()
  | Insn.Push o ->
    let v = value_int ctx ~insn_addr:ia o in
    let rsp = sub (get_reg ctx Reg.RSP) (const 8L) in
    set_reg ctx Reg.RSP rsp;
    store ctx ~insn_addr:ia rsp 8 (Vint v)
  | Insn.Pop o ->
    let rsp = get_reg ctx Reg.RSP in
    let v =
      match load ctx ~insn_addr:ia rsp 8 with
      | Vint p -> p
      | Vfloat _ -> opaque ()
    in
    set_reg ctx Reg.RSP (add rsp (const 8L));
    store_int ctx ~insn_addr:ia o v
  | Insn.Cmov (_, r, src) ->
    (* conservatively simplified (§II-D): result may be either operand *)
    let cur = get_reg ctx r in
    let alt = value_int ctx ~insn_addr:ia src in
    if not (equal cur alt) then begin
      let m = fresh_atom (Merge ia) in
      Hashtbl.replace ctx.merge_srcs m.aid [ Vint cur; Vint alt ];
      set_reg ctx r (of_atom m)
    end
  | Insn.Fmov (w, dst, src) -> begin
      let bytes = 8 * Insn.lanes w in
      match dst with
      | Operand.Freg r -> begin
          match src with
          | Operand.Freg s -> set_freg ctx r (get_freg ctx s)
          | Operand.Fmem m ->
            set_freg ctx r (loadf ctx ~insn_addr:ia (addr_of_mem ctx m) bytes)
        end
      | Operand.Fmem m ->
        let v =
          match src with
          | Operand.Freg s -> Vfloat (get_freg ctx s)
          | Operand.Fmem m2 -> load ctx ~insn_addr:ia (addr_of_mem ctx m2) bytes
        in
        store ctx ~insn_addr:ia (addr_of_mem ctx m) bytes v
    end
  | Insn.Fbin (w, op, d, src) ->
    let bytes = 8 * Insn.lanes w in
    let b =
      match src with
      | Operand.Freg s -> get_freg ctx s
      | Operand.Fmem m -> loadf ctx ~insn_addr:ia (addr_of_mem ctx m) bytes
    in
    set_freg ctx d (Fbinop (op, get_freg ctx d, b))
  | Insn.Fsqrt (w, d, src) ->
    let bytes = 8 * Insn.lanes w in
    (match src with
     | Operand.Freg _ -> ()
     | Operand.Fmem m -> ignore (loadf ctx ~insn_addr:ia (addr_of_mem ctx m) bytes));
    set_freg ctx d (Funknown (fresh_atom (Opaque ia)))
  | Insn.Fbcast (w, d, src) ->
    let _ = w in
    let v =
      match src with
      | Operand.Freg s -> get_freg ctx s
      | Operand.Fmem m -> loadf ctx ~insn_addr:ia (addr_of_mem ctx m) 8
    in
    set_freg ctx d v
  | Insn.Fcmp (a, b) ->
    let fa = get_freg ctx a in
    let fb =
      match b with
      | Operand.Fmem m -> loadf ctx ~insn_addr:ia (addr_of_mem ctx m) 8
      | Operand.Freg r -> get_freg ctx r
    in
    ctx.st.cmp <- Some (Cmp_float (fa, fb));
    ctx.all_cmps <- Cmp_float (fa, fb) :: ctx.all_cmps
  | Insn.Cvtsi2sd (d, src) ->
    set_freg ctx d (Fconvert (value_int ctx ~insn_addr:ia src))
  | Insn.Cvtsd2si (d, src) ->
    (match src with
     | Operand.Fmem m -> ignore (loadf ctx ~insn_addr:ia (addr_of_mem ctx m) 8)
     | Operand.Freg _ -> ());
    set_reg ctx d (opaque ())
  | Insn.Syscall _ ->
    ctx.has_syscall <- true;
    (* syscalls return in RAX (and may advance the heap break) *)
    set_reg ctx Reg.RAX (of_atom (fresh_atom (Opaque ii.Cfg.addr)))
  | Insn.Prefetch _ -> ()  (* hint: no architectural effect *)

(** Merge two states at a control-flow join (block address [at]);
    equal values survive (duplicated-path elimination, §II-D), differing
    ones become phi atoms. Store entries that do not survive the merge
    are marked dirty so later loads cannot resurrect stale names. *)
let merge_states ctx ~at (a : state) (b : state) : state =
  let regs =
    Array.init (Array.length a.regs) (fun i ->
        if equal a.regs.(i) b.regs.(i) then a.regs.(i)
        else begin
          let m = fresh_atom (Merge at) in
          Hashtbl.replace ctx.merge_srcs m.aid
            [ Vint a.regs.(i); Vint b.regs.(i) ];
          of_atom m
        end)
  in
  let fregs =
    Array.init (Array.length a.fregs) (fun i ->
        if fexpr_equal a.fregs.(i) b.fregs.(i) then a.fregs.(i)
        else begin
          let m = fresh_atom (Merge at) in
          Hashtbl.replace ctx.merge_srcs m.aid
            [ Vfloat a.fregs.(i); Vfloat b.fregs.(i) ];
          Funknown m
        end)
  in
  let same s s' =
    s.s_bytes = s'.s_bytes && equal s.s_addr s'.s_addr
    &&
    match s.s_val, s'.s_val with
    | Vint p, Vint q -> equal p q
    | Vfloat f, Vfloat g -> fexpr_equal f g
    | (Vint _ | Vfloat _), _ -> false
  in
  let stores = List.filter (fun s -> List.exists (same s) b.stores) a.stores in
  let lost side other =
    List.iter
      (fun s ->
         if not (List.exists (same s) other) then
           ctx.dirty <- (s.s_addr, s.s_bytes) :: ctx.dirty)
      side
  in
  lost a.stores b.stores;
  lost b.stores a.stores;
  { regs; fregs; cmp = None; stores }

let copy_state (s : state) =
  { regs = Array.copy s.regs; fregs = Array.copy s.fregs; cmp = s.cmp;
    stores = s.stores }


(** Does a value mention an atom satisfying [pred], looking through the
    inputs of merge (phi) atoms? Old values hidden behind a conditional
    redefinition are still dependences. *)
let mentions ctx pred v =
  (* made when the walk first reaches a Merge or Opaque atom: most
     values never do *)
  let seen = lazy (Hashtbl.create 16) in
  let rec atom_m (a : atom) =
    pred a
    ||
    match a.kind with
    | Merge _ | Opaque _ ->
      (* opaque atoms with recorded operands (non-affine ALU results)
         are transparent too: the inputs are real dependences *)
      let seen = Lazy.force seen in
      if Hashtbl.mem seen a.aid then false
      else begin
        Hashtbl.replace seen a.aid ();
        match Hashtbl.find_opt ctx.merge_srcs a.aid with
        | Some vs -> List.exists value_m vs
        | None -> false
      end
    | _ -> false
  and value_m = function
    | Vint p -> poly_m p
    | Vfloat f -> fexpr_m f
  and poly_m p = List.exists atom_m (atoms p)
  and fexpr_m = function
    | Fatom a | Funknown a -> atom_m a
    | Fbinop (_, x, y) -> fexpr_m x || fexpr_m y
    | Fconvert p -> poly_m p
  in
  value_m v

let mentions_poly ctx pred p = mentions ctx pred (Vint p)
let mentions_fexpr ctx pred f = mentions ctx pred (Vfloat f)
