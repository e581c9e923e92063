(** The JX executable format.

    A JX image is what the static analyser receives: raw code bytes at
    a known base address, initialised data, a BSS size, and a PLT-like
    table of external (shared library) entries — names only, no
    internal symbols, mirroring a stripped ELF binary whose dynamic
    symbols survive stripping. *)

type t = {
  entry : int;           (* virtual address of the first instruction *)
  text : bytes;          (* encoded code, loaded at Layout.text_base *)
  data : bytes;          (* initialised data, loaded at Layout.data_base *)
  bss_size : int;        (* zero-initialised region at Layout.bss_base *)
  externals : string list;  (* PLT entries, slot i at Layout.plt_slot_addr i *)
}

let magic = "JX64"

let text_end img = Layout.text_base + Bytes.length img.text

(** Total file size in bytes, used as the denominator of Fig. 10. *)
let size img =
  String.length magic + 8 (* entry *) + 4 (* counts *) * 3
  + Bytes.length img.text + Bytes.length img.data
  + List.fold_left (fun acc s -> acc + String.length s + 1) 0 img.externals

let plt_addr img name =
  let rec go i = function
    | [] -> None
    | n :: _ when String.equal n name -> Some (Layout.plt_slot_addr i)
    | _ :: tl -> go (i + 1) tl
  in
  go 0 img.externals

let external_of_addr img addr =
  if not (Layout.in_plt addr) then None
  else
    let i = Layout.plt_index_of_addr addr in
    List.nth_opt img.externals i

(** Serialise to bytes (the on-disk form; size must equal {!size}). *)
let to_bytes img =
  let b = Buffer.create (Bytes.length img.text + 256) in
  Buffer.add_string b magic;
  let put_i32 v =
    for i = 0 to 3 do
      Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  let put_i64 v = put_i32 (v land 0xffffffff); put_i32 (v lsr 32) in
  put_i64 img.entry;
  put_i32 (Bytes.length img.text);
  put_i32 (Bytes.length img.data);
  put_i32 img.bss_size;
  Buffer.add_bytes b img.text;
  Buffer.add_bytes b img.data;
  List.iter
    (fun s ->
       Buffer.add_string b s;
       Buffer.add_char b '\000')
    img.externals;
  Buffer.to_bytes b

exception Bad_image of string

(* magic, entry (two 32-bit halves), text, data and bss lengths *)
let header_size = String.length magic + 8 + (4 * 3)

(* total: an image, or Bad_image naming the first thing wrong *)
let of_bytes buf =
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad_image s)) fmt in
  let len = Bytes.length buf in
  if len < String.length magic
     || not (String.equal (Bytes.sub_string buf 0 (String.length magic)) magic)
  then bad "bad magic";
  if len < header_size then
    bad "truncated header (%d of %d bytes)" len header_size;
  let u32 off = Int32.to_int (Bytes.get_int32_le buf off) land 0xffffffff in
  let hi = u32 8 in
  (* [to_bytes] writes the entry's top half from a 63-bit int *)
  if hi land 0x80000000 <> 0 then
    bad "entry 0x%x%08x out of range" hi (u32 4);
  let section what pos n =
    if n > len - pos then
      bad "%s claims %d bytes, %d remain" what n (len - pos);
    Bytes.sub buf pos n
  in
  let text_len = u32 12 and data_len = u32 16 in
  let text = section "text" header_size text_len in
  let data = section "data" (header_size + text_len) data_len in
  (* the rest is the PLT: NUL-terminated names up to the end *)
  let rec externals pos acc =
    if pos = len then List.rev acc
    else
      match Bytes.index_from_opt buf pos '\000' with
      | Some nul ->
        externals (nul + 1) (Bytes.sub_string buf pos (nul - pos) :: acc)
      | None -> bad "unterminated external name at byte %d" pos
  in
  { entry = u32 4 lor (hi lsl 32); text; data; bss_size = u32 20;
    externals = externals (header_size + text_len + data_len) [] }

(** Decode the text section into an address-indexed instruction table.
    Result maps virtual address -> (instruction, encoded length). *)
let decode_text img =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (off, i, len) -> Hashtbl.replace tbl (Layout.text_base + off) (i, len))
    (Decode.all img.text);
  tbl
