(* jx_objdump: objdump-style inspector for JX executables.

   Prints the image header and PLT, then a per-function disassembly
   with recovered basic-block leaders, control-flow edges and loop
   annotations (header/latch/exit markers with nesting depth and the
   analyser's classification). Stripped binaries have no symbol names,
   so functions are labelled by their entry addresses, exactly what the
   paper's analyser works from.

   Usage: jx_objdump [--headers] [--no-loops] file.jx *)

open Cmdliner
module Analysis = Janus_analysis.Analysis
module Cfg = Janus_analysis.Cfg
module Loopanal = Janus_analysis.Loopanal
module Looptree = Janus_analysis.Looptree
open Janus_vx

let pp_headers ppf (img : Image.t) =
  Fmt.pf ppf "JX executable, %d bytes@." (Image.size img);
  Fmt.pf ppf "  entry   0x%x@." img.Image.entry;
  Fmt.pf ppf "  .text   0x%x  %6d bytes@." Layout.text_base
    (Bytes.length img.Image.text);
  Fmt.pf ppf "  .plt    0x%x  %6d slots@." Layout.plt_base
    (List.length img.Image.externals);
  Fmt.pf ppf "  .data   0x%x  %6d bytes@." Layout.data_base
    (Bytes.length img.Image.data);
  Fmt.pf ppf "  .bss    0x%x  %6d bytes@." Layout.bss_base img.Image.bss_size;
  List.iteri
    (fun i name ->
       Fmt.pf ppf "  plt[%d] 0x%x  %s@." i (Layout.plt_slot_addr i) name)
    img.Image.externals

(* loop annotations for one function: block address -> marker strings *)
let loop_marks (reports : Loopanal.report list) (f : Cfg.func) =
  let marks : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let add addr s =
    let old = try Hashtbl.find marks addr with Not_found -> [] in
    Hashtbl.replace marks addr (old @ [ s ])
  in
  List.iter
    (fun (r : Loopanal.report) ->
       if r.Loopanal.func.Cfg.fentry = f.Cfg.fentry then begin
         let l = r.Loopanal.loop in
         let cls = Loopanal.classification_name r.Loopanal.cls in
         add l.Looptree.header
           (Printf.sprintf "loop %d header (%s)" l.Looptree.lid cls);
         List.iter
           (fun latch ->
              add latch (Printf.sprintf "loop %d latch" l.Looptree.lid))
           l.Looptree.latches;
         List.iter
           (fun (_, target) ->
              add target (Printf.sprintf "loop %d exit" l.Looptree.lid))
           l.Looptree.exits
       end)
    reports;
  marks

let pp_block marks ppf (b : Cfg.bblock) =
  (match Hashtbl.find_opt marks b.Cfg.baddr with
   | Some ms -> List.iter (fun m -> Fmt.pf ppf "  ; <%s>@." m) ms
   | None -> ());
  Array.iter
    (fun (ii : Cfg.insn_info) ->
       Fmt.pf ppf "  %06x:  %a@." ii.Cfg.addr Insn.pp ii.Cfg.insn)
    b.Cfg.insns;
  match b.Cfg.succs with
  | [] | [ _ ] -> ()   (* fallthrough / return: no annotation needed *)
  | succs ->
    Fmt.pf ppf "  ; -> %s@."
      (String.concat ", " (List.map (Printf.sprintf "0x%x") succs))

let pp_func marks ppf (f : Cfg.func) =
  Fmt.pf ppf "@.<func_%x>%s:@." f.Cfg.fentry
    (if f.Cfg.irregular then "  ; irregular control flow" else "");
  List.iter (pp_block marks ppf) f.Cfg.blocks;
  List.iter
    (fun (addr, name) -> Fmt.pf ppf "  ; 0x%x calls %s@plt@." addr name)
    f.Cfg.excall_sites

let objdump headers_only no_loops input =
  let img = Cli.read_image ~tool:"jx_objdump" input in
  Fmt.pr "%a" pp_headers img;
  if not headers_only then begin
    let t = Analysis.analyse_image img in
    let reports = if no_loops then [] else t.Analysis.reports in
    List.iter
      (fun (f : Cfg.func) -> pp_func (loop_marks reports f) Fmt.stdout f)
      (List.sort
         (fun (a : Cfg.func) b -> compare a.Cfg.fentry b.Cfg.fentry)
         (Cfg.all_funcs t.Analysis.cfg))
  end;
  0

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jx")

let headers_arg =
  Arg.(value & flag & info [ "headers" ] ~doc:"Print only the image header.")

let no_loops_arg =
  Arg.(value & flag & info [ "no-loops" ] ~doc:"Skip loop annotations.")

let cmd =
  Cmd.v
    (Cmd.info "jx_objdump" ~doc:"Disassemble and annotate a JX executable")
    Term.(const objdump $ headers_arg $ no_loops_arg $ input_arg)

let () = exit (Cmd.eval' cmd)
