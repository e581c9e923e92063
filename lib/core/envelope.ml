(** Checked files; see envelope.mli for the layout and the contract. *)

type error = Stale | Corrupt of string

let encode ~magic ~version fields payload =
  let header =
    (magic :: version :: fields)
    @ [ Digest.to_hex (Digest.string payload);
        string_of_int (String.length payload) ]
  in
  if List.exists (fun l -> String.contains l '\n') header then
    invalid_arg "Envelope.encode: a header line contains a newline";
  String.concat "\n" (header @ [ payload ])

exception Reject of error

let decode ~magic ~version ~fields s =
  let corrupt fmt =
    Printf.ksprintf (fun m -> raise_notrace (Reject (Corrupt m))) fmt
  in
  let pos = ref 0 in
  let line what =
    match String.index_from_opt s !pos '\n' with
    | None -> corrupt "truncated header (%s)" what
    | Some nl ->
      let l = String.sub s !pos (nl - !pos) in
      pos := nl + 1;
      l
  in
  match
    let m = line "magic" in
    if m <> magic then corrupt "bad magic %S" m;
    if line "version" <> version then raise_notrace (Reject Stale);
    let fs = List.init (max 0 fields) (fun _ -> line "field") in
    let md5 = line "digest" in
    let len =
      match int_of_string_opt (line "length") with
      | Some n when n >= 0 -> n
      | _ -> corrupt "bad payload length"
    in
    if String.length s - !pos <> len then
      corrupt "payload length %d does not match file size" len;
    let payload = String.sub s !pos len in
    if Digest.to_hex (Digest.string payload) <> md5 then
      corrupt "payload digest mismatch";
    (fs, payload)
  with
  | r -> Ok r
  | exception Reject e -> Error e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p d =
  if d <> "" && not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.file_exists d && Sys.is_directory d -> ()
  end

let publish path data =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".")
      ".tmp"
  in
  match
    (* [close_out] flushes: a failed final write raises here, before
       the rename could put a truncated file in [path]'s place *)
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         output_string oc data;
         close_out oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let prune_dir ?max_age ?max_bytes ?(protect = fun _ -> false) ~exts dir =
  let names =
    if Sys.file_exists dir && Sys.is_directory dir then Sys.readdir dir
    else [||]
  in
  let entries =
    Array.to_list names
    |> List.filter (fun f -> List.mem (Filename.extension f) exts)
    |> List.filter_map (fun f ->
        let path = Filename.concat dir f in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
          Some (st_mtime, path, st_size)
        | _ | (exception Unix.Unix_error _) -> None)
    |> List.sort compare  (* oldest first; name breaks mtime ties *)
  in
  let deleted = ref 0 in
  let remove path =
    match Sys.remove path with
    | () -> incr deleted; true
    | exception Sys_error _ -> false
  in
  let now = Unix.gettimeofday () in
  let expired mtime =
    Option.fold max_age ~none:false ~some:(fun age ->
        now -. mtime > float_of_int age)
  in
  let survivors =
    List.filter
      (fun (mtime, path, _) ->
         not (expired mtime && not (protect path) && remove path))
      entries
  in
  let budget = Option.value max_bytes ~default:max_int in
  let total = ref (List.fold_left (fun a (_, _, sz) -> a + sz) 0 survivors) in
  List.iter
    (fun (_, path, sz) ->
       if !total > budget && not (protect path) && remove path then
         total := !total - sz)
    survivors;
  !deleted
