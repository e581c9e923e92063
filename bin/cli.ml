(* What the command-line tools share: the JX image reader and the
   argument converters. Values are range-checked and benchmark names
   resolved while cmdliner parses, so a bad value is a usage error
   (exit 124) that names its flag. *)

open Cmdliner

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.of_string (In_channel.input_all ic))

(* A JX binary named on the command line. A file that cannot be read
   or is not a JX image is unusable input, not an internal error: one
   line naming the tool and the path, then exit 2. *)
let read_image ~tool path =
  match Janus_vx.Image.of_bytes (read_file path) with
  | image -> image
  | exception Janus_vx.Image.Bad_image msg ->
    Fmt.epr "%s: %s is not a JX binary: %s@." tool path msg;
    exit 2
  | exception Sys_error msg ->
    Fmt.epr "%s: cannot read %s: %s@." tool path msg;
    exit 2

let int_conv what ~ok ~expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | Some n ->
      Error (`Msg (Printf.sprintf "%s must be %s, got %d" what expected n))
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer, got %S" what s))
  in
  Arg.conv (parse, Fmt.int)

let pos_int what = int_conv what ~ok:(fun n -> n > 0) ~expected:"positive"

let nonneg_int what =
  int_conv what ~ok:(fun n -> n >= 0) ~expected:"non-negative"

(* a synthetic-suite benchmark, by name *)
let bench =
  let module Suite = Janus_suite.Suite in
  let parse name =
    match Suite.find name with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" name))
  in
  Arg.conv (parse, fun ppf (b : Suite.benchmark) -> Fmt.string ppf b.Suite.name)
