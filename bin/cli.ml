(* Argument converters shared by the command-line tools. Values are
   range-checked and benchmark names resolved while cmdliner parses, so
   a bad value is a usage error (exit 124) that names its flag. *)

open Cmdliner

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
