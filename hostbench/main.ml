(* hostbench: the host-clock benchmark of the Janus reproduction.

   Usage: main.exe --workload suite|fuzz|serve --seed N --seconds S
                   --trace 0|1 [--ops N] [--daemon PATH] [--out DIR]
                   [--ops-log FILE] [--commit REV] [--nproc N]

   Runs one closed-loop workload with one client over a fixed amount of
   work that S sets at the rate the workload ran at when it was written
   (or exactly N ops with --ops), checks every op
   against an independent reference, prints the run report and, as its
   last line, one JSON object with the gated metrics: the end-to-end
   ones when untraced (timings scaled to a reference host speed, see
   Common), the per-layer ledger when traced. A traced run
   also writes its spans as Chrome trace_event JSON under --out. *)

let gated_end_to_end =
  [ "ops_per_s"; "op_p50_ms"; "op_p90_ms"; "setup_s"; "peak_rss_mb" ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 || Char.code c > 0x7e ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metric (m : Hostbench.Common.metric) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
    (json_string m.Hostbench.Common.name)
    (json_float m.Hostbench.Common.value)
    (json_string m.Hostbench.Common.unit_)

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and ops = ref 0 and daemon = ref "" in
  let out = ref "hostbench/_out" and ops_log = ref "" and commit = ref "unknown" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "suite|fuzz|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S nominal operation time, which sets the work");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--ops", Arg.Set_int ops, "N run exactly N ops instead of --seconds");
      ("--daemon", Arg.Set_string daemon, "PATH janus_served executable");
      ("--out", Arg.Set_string out, "DIR report and trace directory");
      ("--ops-log", Arg.Set_string ops_log, "FILE per-op results and latencies");
      ("--commit", Arg.Set_string commit, "REV build revision for the report");
      ("--nproc", Arg.Set_int nproc, "N the machine's CPU count, for the report") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let module C = Hostbench.Common in
  let budget = if !ops > 0 then `Ops !ops else `Time !seconds in
  let traced = !trace = 1 in
  Hostbench.Serve_wl.mkdir_p !out;
  let outcome, spans =
    match !workload with
    | "suite" -> Hostbench.Suite_wl.run ~seed:!seed ~budget ~traced
    | "fuzz" -> Hostbench.Fuzz_wl.run ~seed:!seed ~budget ~traced
    | "serve" ->
      if !daemon = "" then (prerr_endline "serve needs --daemon"; exit 2);
      Hostbench.Serve_wl.run ~daemon:!daemon ~out:!out ~seed:!seed ~budget ~traced
    | w -> prerr_endline ("unknown workload " ^ w); exit 2
  in
  let all = outcome.C.ops in
  let attempted = List.length all in
  let failed = List.filter (fun o -> o.C.fail <> None) all in
  let skipped = List.length (List.filter (fun o -> o.C.skip) all) in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "hostbench workload=%s seed=%d trace=%d nproc=%d ocaml=%s commit=%s janus=%s"
    !workload !seed !trace !nproc Sys.ocaml_version
    !commit Janus_core.Version.version;
  line "ops attempted=%d failed=%d skipped=%d" attempted (List.length failed) skipped;
  (* the op mix: per kind, its ops and its share of ops and of op time *)
  let total_ms = C.sum (List.map (fun o -> o.C.ms) all) in
  let mix =
    List.map
      (fun kind ->
         let os = List.filter (fun o -> o.C.kind = kind) all in
         ( kind,
           List.length os,
           float_of_int (List.length os) /. float_of_int attempted,
           C.sum (List.map (fun o -> o.C.ms) os) /. total_ms ))
      (List.sort_uniq compare (List.map (fun o -> o.C.kind) all))
  in
  List.iter
    (fun (kind, n, op_share, time_share) ->
       line "mix %s ops=%d op_share=%.4f time_share=%.4f" kind n op_share time_share)
    mix;
  List.iter
    (fun (m : C.metric) ->
       line "metric %s %s %s n=%d" m.C.name (json_float m.C.value) m.C.unit_ m.C.samples)
    outcome.C.metrics;
  List.iter
    (fun o ->
       line "failed %s %s %s" !workload o.C.id (Option.value ~default:"" o.C.fail))
    failed;
  if traced then begin
    List.iter
      (fun (l, s, share) -> line "ledger %-10s self_s=%.3f share=%.4f" l s share)
      (Hostbench.Ledger.shares spans);
    List.iter
      (fun (m : C.metric) -> line "layer %s %s %s" m.C.name (json_float m.C.value) m.C.unit_)
      outcome.C.layers
  end;
  List.iter (fun n -> line "note %s" n) outcome.C.notes;
  print_string (Buffer.contents b);
  let tag = Printf.sprintf "%s-s%d-t%d" !workload !seed !trace in
  let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
  write
    (Filename.concat !out ("report-" ^ tag ^ ".json"))
    (Printf.sprintf
       "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
        \"ocaml\": %s, \"commit\": %s, \"attempted\": %d, \"failed\": %d, \
        \"skipped\": %d,\n \"mix\": {%s},\n \"failed_ops\": %s,\n \"metrics\": %s,\n \
        \"samples\": %s,\n \"layers\": {%s},\n \"notes\": %s}\n"
       (json_string !workload) !seed !trace !nproc
       (json_string Sys.ocaml_version) (json_string !commit) attempted (List.length failed) skipped
       (String.concat ", "
          (List.map
             (fun (kind, n, op_share, time_share) ->
                Printf.sprintf "%s: {\"ops\": %d, \"op_share\": %s, \"time_share\": %s}"
                  (json_string kind) n (json_float op_share) (json_float time_share))
             mix))
       (json_list
          (fun o ->
             Printf.sprintf "{\"id\": %s, \"check\": %s}" (json_string o.C.id)
               (json_string (Option.value ~default:"" o.C.fail)))
          failed)
       ("{" ^ String.concat ", " (List.map json_metric outcome.C.metrics) ^ "}")
       ("{"
        ^ String.concat ", "
            (List.map
               (fun (m : C.metric) -> Printf.sprintf "%s: %d" (json_string m.C.name) m.C.samples)
               outcome.C.metrics)
        ^ "}")
       (String.concat ", " (List.map json_metric outcome.C.layers))
       (json_list json_string outcome.C.notes));
  if traced then
    write
      (Filename.concat !out ("trace-" ^ tag ^ ".json"))
      (Hostbench.Trace.chrome_json spans);
  if !ops_log <> "" then
    write !ops_log
      (String.concat ""
         (List.mapi
            (fun i o ->
               Printf.sprintf "%d\t%s\t%s\t%s\t%.3f\t%.3f\n" i o.C.id
                 (Option.value ~default:"ok" o.C.fail) o.C.print o.C.ms o.C.ref_ms)
            all));
  let reported =
    if traced then outcome.C.layers
    else
      List.filter
        (fun (m : C.metric) -> List.mem m.C.name gated_end_to_end)
        outcome.C.metrics
  in
  let correct =
    outcome.C.consistent && attempted > 0
    && List.for_all (fun (m : C.metric) -> Float.is_finite m.C.value) reported
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted (List.length failed)
    (String.concat ", " (List.map json_metric reported))
