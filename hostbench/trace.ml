(* Host-clock spans recorded by the benchmark around its own calls into
   each layer's public functions, plus the counters those calls return.

   Spans are kept in memory and written once, at the end, as Chrome
   trace_event JSON (the format [Obs.chrome_json] emits for the
   virtual-cycle timeline). A layer's self time is its spans' duration
   minus the part covered by their child spans. *)

type span = {
  sid : int;
  name : string;    (* the layer, or "op" for an operation's root span *)
  t0 : float;
  t1 : float;
  parent : int;     (* -1 for a root *)
  op : int;         (* index of the operation the span belongs to *)
}

type t = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable op : int;
  counters : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next = 0; op = 0; counters = Hashtbl.create 64 }

(* [span_as t name_of f] runs [f] in a span whose name [name_of] picks
   once [f] has returned (or raised). *)
let span_as t name_of f =
  let sid = t.next in
  t.next <- sid + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- sid :: t.stack;
  let t0 = Common.now () in
  let close () =
    let t1 = Common.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { sid; name = name_of (); t0; t1; parent; op = t.op } :: t.spans
  in
  match f () with
  | r -> close (); r
  | exception e -> close (); raise e

let span t name f = span_as t (fun () -> name) f

(* One operation's root span; [setup] work outside any operation is
   rooted in a "setup" span with operation index -1. *)
let op t i f =
  t.op <- i;
  span t "op" f

let setup t f =
  t.op <- -1;
  span t "setup" f

let add t key v =
  Hashtbl.replace t.counters key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters key))

let get t key = Option.value ~default:0.0 (Hashtbl.find_opt t.counters key)

(* Gc deltas around an execute call. *)
let with_gc t f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  add t "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  add t "gc.major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  r

let dur s = s.t1 -. s.t0

let root s = s.name = "op" || s.name = "setup"

(* Self time per layer (seconds), root spans excluded; [ops_only]
   keeps the spans inside operations. *)
let self_times ?(ops_only = false) t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child s.parent
           (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
       if not (root s) && not (ops_only && s.op < 0) then
         let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid) in
         Hashtbl.replace self s.name
           (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    t.spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq self))

(* Total duration of the spans named [name] (seconds). *)
let busy t name =
  List.fold_left (fun a s -> if s.name = name then a +. dur s else a) 0.0 t.spans

(* Share of the operations' wall-clock that named layers account for. *)
let attributed_share t =
  let total = busy t "op" in
  if total <= 0.0 then 0.0
  else Common.sum (List.map snd (self_times ~ops_only:true t)) /. total

let chrome_json t =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun a s -> min a s.t0) infinity spans in
  let us x = Printf.sprintf "%.1f" ((x -. origin) *. 1e6) in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\
     \"tid\":1,\"args\":{\"name\":\"benchmark client\"}}";
  List.iter
    (fun s ->
       Buffer.add_string b
         (Printf.sprintf
            ",{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":%s,\
             \"dur\":%.1f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\
             \"parent\":%d,\"op\":%d}}"
            s.name (us s.t0) (dur s *. 1e6) s.sid s.parent s.op))
    spans;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b
