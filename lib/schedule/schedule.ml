(** A rewrite schedule: header, fixed-length rewrite rules and a data
    section of structured descriptors (§II-A1). This file format is the
    only channel between the static analyser and the dynamic binary
    modifier. *)

type channel = Profiling | Parallelisation

type t = {
  channel : channel;
  rules : Rule.t list;         (* sorted by address *)
  data : bytes;                (* descriptor pool *)
}

let magic = "JRS1"

(** {1 Construction} *)

type builder = {
  mutable brules : Rule.t list;
  pool : Buffer.t;
  bchannel : channel;
}

let builder channel = { brules = []; pool = Buffer.create 256; bchannel = channel }

let add_rule b r = b.brules <- r :: b.brules

(** Store a loop descriptor in the pool; returns its byte offset (to be
    carried in a rule's [data] field). *)
let add_loop_desc b d =
  let off = Buffer.length b.pool in
  Desc.write_loop_desc b.pool d;
  off

let add_check_desc b c =
  let off = Buffer.length b.pool in
  Desc.write_check_desc b.pool c;
  off

let add_fission_desc b f =
  let off = Buffer.length b.pool in
  Desc.write_fission_desc b.pool f;
  off

let build b =
  let rules =
    List.stable_sort (fun a c -> compare a.Rule.addr c.Rule.addr)
      (List.rev b.brules)
  in
  { channel = b.bchannel; rules; data = Buffer.to_bytes b.pool }

(** {1 Queries} *)

let loop_desc t off =
  Desc.read_loop_desc t.data (ref (Int64.to_int off))

let check_desc t off =
  Desc.read_check_desc t.data (ref (Int64.to_int off))

let fission_desc t off =
  Desc.read_fission_desc t.data (ref (Int64.to_int off))

(** Rules indexed by trigger address, preserving schedule order for
    same-address rules (transformation order is defined by the static
    analyser, §II-A2). *)
let index t =
  let tbl = Hashtbl.create (List.length t.rules) in
  List.iter
    (fun r ->
       let existing = try Hashtbl.find tbl r.Rule.addr with Not_found -> [] in
       Hashtbl.replace tbl r.Rule.addr (existing @ [ r ]))
    t.rules;
  tbl

(** {1 Serialisation} *)

let to_bytes t =
  let b = Buffer.create (1024 + List.length t.rules * Rule.record_size) in
  Buffer.add_string b magic;
  Buffer.add_char b (match t.channel with Profiling -> '\000' | Parallelisation -> '\001');
  Buffer.add_int32_le b (Int32.of_int (List.length t.rules));
  Buffer.add_int32_le b (Int32.of_int (Bytes.length t.data));
  List.iter (Rule.write b) t.rules;
  Buffer.add_bytes b t.data;
  Buffer.to_bytes b

exception Bad_schedule of string

let header_size = 13

let of_bytes bytes =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad_schedule m)) fmt in
  let len = Bytes.length bytes in
  if len < header_size then fail "truncated header (%d bytes)" len;
  if not (String.equal (Bytes.sub_string bytes 0 4) magic) then
    fail "bad magic";
  let channel =
    match Char.code (Bytes.get bytes 4) with
    | 0 -> Profiling
    | 1 -> Parallelisation
    | n -> fail "bad channel %d" n
  in
  let nrules = Int32.to_int (Bytes.get_int32_le bytes 5) in
  let data_len = Int32.to_int (Bytes.get_int32_le bytes 9) in
  if nrules < 0 || nrules > (len - header_size) / Rule.record_size then
    fail "rule count %d does not fit in %d bytes" nrules len;
  let data_off = header_size + (nrules * Rule.record_size) in
  if data_len <> len - data_off then
    fail "length %d, but the header describes %d bytes" len
      (data_off + data_len);
  let rule i =
    let off = header_size + (i * Rule.record_size) in
    let id = Char.code (Bytes.get bytes (off + 4)) in
    match Rule.read bytes off with
    | r -> r
    | exception Invalid_argument _ -> fail "rule %d: unknown rule id %d" i id
  in
  { channel; rules = List.init nrules rule;
    data = Bytes.sub bytes data_off data_len }

(** Schedule size in bytes — the numerator of Fig. 10. *)
let size t = Bytes.length (to_bytes t)

let pp ppf t =
  Fmt.pf ppf "rewrite schedule (%s): %d rules, %d data bytes@."
    (match t.channel with Profiling -> "profiling" | Parallelisation -> "parallelisation")
    (List.length t.rules) (Bytes.length t.data);
  List.iter (fun r -> Fmt.pf ppf "  %a@." Rule.pp r) t.rules
