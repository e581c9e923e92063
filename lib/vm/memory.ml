(** Region-based guest memory.

    The address space is a small set of non-overlapping regions (text,
    data, bss, heap, library data, one stack and one TLS block per
    thread). Loads and stores fault outside any region, which is how
    the VM catches wild accesses from miscompiled or mis-rewritten
    code.

    Two properties make this fast enough to sit under every
    interpreted instruction:

    - {b Page-granular lookup}: a flat table indexed by [addr lsr 16]
      maps each 64 KiB page to the region covering it, built
      incrementally by {!add_region}. The fixed {!Janus_vx.Layout}
      keeps every region alone on its pages, so a lookup is one load +
      two compares; a shared page (possible only for layouts not
      produced by [Layout]) falls back to a linear walk with exactly
      the list representation's semantics.

    - {b Windowed backing}: a region's architectural size (what bounds
      checks and faults see) is fixed at creation, but its zero-filled
      backing bytes are a window that opens where the guest first
      touches the region and grows towards later touches, in either
      direction. The 16 MiB heap costs no 16 MiB memset per program
      load, and a stack, first touched at its top, costs no zero-fill
      of the megabyte below it. Bytes outside the window read as the
      zeros they would hold in an eager, fully allocated region. *)

exception Fault of int  (* faulting guest address *)

type region = {
  start : int;
  size : int;              (* architectural size: bounds and faults *)
  mutable base : int;      (* guest address of bytes.(0) *)
  mutable bytes : Bytes.t; (* window [base, base + length) of the region *)
  name : string;
}

let page_bits = 16
let granule = 4096  (* a window grows to granule-aligned bounds *)

(* sentinel for unmapped pages: no address satisfies its bounds, and
   its empty window fails every fast-path test *)
let no_region =
  { start = -1; size = 0; base = -1; bytes = Bytes.empty; name = "" }

type t = {
  mutable regions : region list;
  mutable pages : region array;  (* page number -> covering region *)
}

let create () = { regions = []; pages = [||] }

let grow_pages t wanted =
  if wanted > Array.length t.pages then begin
    let n = max wanted (max 64 (2 * Array.length t.pages)) in
    let pages = Array.make n no_region in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end

let add_region t ~name ~start ~size =
  let r = { start; size; base = start; bytes = Bytes.empty; name } in
  t.regions <- r :: t.regions;
  if size > 0 && start >= 0 then begin
    let first = start lsr page_bits in
    let last = (start + size - 1) lsr page_bits in
    grow_pages t (last + 1);
    for p = first to last do
      (* last writer wins on a shared page; the loser is still found by
         the linear-walk fallback *)
      t.pages.(p) <- r
    done
  end;
  r

(* Widen [r]'s window to cover the guest range [lo, hi), which the
   caller has bounds-checked against the region. The new bounds are
   rounded out to the granule and clipped to the region; a window that
   grows at least doubles on the side it grows, so a guest that walks
   a stack down copies a linear number of bytes in total. Old bytes
   keep their guest addresses. *)
let cover r lo hi =
  let len = Bytes.length r.bytes in
  if lo < hi && (lo < r.base || hi > r.base + len) then begin
    let lo' = lo land lnot (granule - 1) in
    let hi' = (hi + granule - 1) land lnot (granule - 1) in
    let nlo, nhi =
      if len = 0 then (lo', hi')
      else
        ((if lo < r.base then min lo' (r.base - len) else r.base),
         if hi > r.base + len then max hi' (r.base + (2 * len))
         else r.base + len)
    in
    let nlo = max r.start nlo and nhi = min (r.start + r.size) nhi in
    let nb = Bytes.make (nhi - nlo) '\000' in
    if len > 0 then Bytes.blit r.bytes 0 nb (r.base - nlo) len;
    r.base <- nlo;
    r.bytes <- nb
  end

(* linear fallback: exactly the pre-page-table behaviour *)
let rec find_region regions addr =
  match regions with
  | [] -> raise (Fault addr)
  | r :: tl ->
    if addr >= r.start && addr - r.start < r.size then r
    else find_region tl addr

let region_of t addr =
  let p = addr lsr page_bits in  (* logical shift: negatives go slow *)
  if p < Array.length t.pages then begin
    let r = Array.unsafe_get t.pages p in
    if addr >= r.start && addr - r.start < r.size then r
    else find_region t.regions addr
  end
  else find_region t.regions addr

let region_by_name t name =
  List.find_opt (fun r -> String.equal r.name name) t.regions

(* The region holding all of [addr..addr+n-1], its window covering the
   range: Fault addr when no region contains addr, Fault (addr+n-1)
   when the range hangs over the region's end. *)
let covering t addr n =
  let r = region_of t addr in
  if addr + n > r.start + r.size then raise (Fault (addr + n - 1));
  cover r addr (addr + n);
  r

let read_u8 t addr =
  let r = covering t addr 1 in
  Char.code (Bytes.get r.bytes (addr - r.base))

let write_u8 t addr v =
  let r = covering t addr 1 in
  Bytes.set r.bytes (addr - r.base) (Char.chr (v land 0xff))

(* The 64-bit accessors are the interpreter's hottest memory path: one
   page-table load, one bounds compare against the region's window,
   then the access. Anything else (an address outside the window, a
   region tail, an unmapped address) takes the slow path, which
   reproduces the original two-step semantics exactly (Fault addr when
   no region contains addr, Fault (addr+7) when the word hangs over a
   region's end) and widens the window. *)

let read_i64_slow t addr =
  let r = covering t addr 8 in
  Bytes.get_int64_le r.bytes (addr - r.base)

let read_i64 t addr =
  let p = addr lsr page_bits in
  if p < Array.length t.pages then begin
    let r = Array.unsafe_get t.pages p in
    let off = addr - r.base in
    if off >= 0 && off + 8 <= Bytes.length r.bytes then
      Bytes.get_int64_le r.bytes off
    else read_i64_slow t addr
  end
  else read_i64_slow t addr

let write_i64_slow t addr v =
  let r = covering t addr 8 in
  Bytes.set_int64_le r.bytes (addr - r.base) v

let write_i64 t addr v =
  let p = addr lsr page_bits in
  if p < Array.length t.pages then begin
    let r = Array.unsafe_get t.pages p in
    let off = addr - r.base in
    if off >= 0 && off + 8 <= Bytes.length r.bytes then
      Bytes.set_int64_le r.bytes off v
    else write_i64_slow t addr v
  end
  else write_i64_slow t addr v

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

let blit t ~addr src =
  let n = Bytes.length src in
  let r = covering t addr n in
  if n > 0 then Bytes.blit src 0 r.bytes (addr - r.base) n

(** Snapshot the contents of [addr..addr+n-1] (for test oracles). *)
let snapshot t addr n =
  let r = covering t addr n in
  if n = 0 then Bytes.empty else Bytes.sub r.bytes (addr - r.base) n
