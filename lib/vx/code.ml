(** Decoded code: one immutable, offset-indexed table per code buffer
    (see code.mli). Lengths and costs are bytes: no encoding is longer
    than 20 bytes and no instruction costs more than 150 cycles, so a
    table costs one word plus two bytes per code byte. *)

type t = {
  base : int;
  insns : Insn.t array;  (* Nop where no instruction starts *)
  lens : Bytes.t;        (* '\000' where no instruction starts *)
  costs : Bytes.t;
}

let make ~base size =
  { base; insns = Array.make size Insn.Nop; lens = Bytes.make size '\000';
    costs = Bytes.make size '\000' }

let set t off insn len =
  t.insns.(off) <- insn;
  Bytes.set t.lens off (Char.chr len);
  Bytes.set t.costs off (Char.chr (Cost.of_insn insn))

let decode ~base buf =
  let t = make ~base (Bytes.length buf) in
  let rec sweep pos =
    if pos < Bytes.length buf then begin
      let insn, len = Decode.one buf pos in
      set t pos insn len;
      sweep (pos + len)
    end
  in
  sweep 0;
  t

let of_image (img : Image.t) = decode ~base:Layout.text_base img.text

let of_insns ~base ~size entries =
  let t = make ~base size in
  List.iter (fun (off, insn, len) -> set t off insn len) entries;
  t

let size t = Bytes.length t.lens

let len t addr =
  let off = addr - t.base in
  if off >= 0 && off < Bytes.length t.lens then
    Char.code (Bytes.unsafe_get t.lens off)
  else 0

let mem t addr = len t addr > 0

let find t addr =
  match len t addr with
  | 0 -> None
  | n -> Some (t.insns.(addr - t.base), n)
