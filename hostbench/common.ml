(* Shared vocabulary of the host benchmark: the per-op record every
   workload produces, the closed-loop measurement window, order
   statistics and the result metrics. *)

let now = Unix.gettimeofday

(* Host speed. The 2-vCPU x86-64 VM this benchmark was written on runs
   the same code at two speeds about 1.55x apart, switching every few
   tens of seconds as other tenants load the host: longer than a run,
   so a whole run reads fast or slow (five suite runs in a row spread
   37%, IQR/median, on op p50). The benchmark therefore times a fixed
   calibration job of its own between ops, at most every [calib_every]
   seconds, and scales each op's latency, and each set-up's duration,
   by [reference_ms] over the job's time next to it: the gated timings
   are at the reference speed. The job is an interpreter loop over a
   64 KiB table, like the VM's dispatch, and allocates nothing, so no
   state of the program under test (its heap, its GC) reaches its
   timing; it is not the repository's code, so no change to the program
   moves it. *)
type cop = Lcg | Load | Store | Mix | Branch

let calib_code = [| Lcg; Load; Mix; Store; Lcg; Mix; Load; Branch |]
let calib_mem = Array.make 8192 1

let calib_job () =
  let code = calib_code and mem = calib_mem in
  let x = ref 1 and y = ref 0 and pc = ref 0 in
  for _ = 1 to 200_000 do
    (match Array.unsafe_get code !pc with
     | Lcg -> x := ((!x * 1103515245) + 12345) land 0x3fff_ffff
     | Load -> y := !y + mem.((!x lsr 5) land 8191)
     | Store -> mem.((!x lsr 9) land 8191) <- !y
     | Mix -> y := (!y lxor !x) + (!y lsr 3)
     | Branch -> if !y land 1 = 0 then pc := (!pc + 2) land 7);
    pc := (!pc + 1) land 7
  done;
  !y

(* The job's time, in ms, at the reference speed: about its fast-epoch
   time on the VM above. *)
let reference_ms = 0.55

let calib_every = 0.1

(* One calibration: the fastest of three back-to-back jobs, so an
   interrupt during one does not count. *)
let calibrate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (calib_job ()));
    best := Float.min !best (1000.0 *. (now () -. t0))
  done;
  !best

let last_calib = ref (neg_infinity, reference_ms)

(* The job's time over the interval that ends now: when the last
   measurement is older than [calib_every], the mean of it (taken when,
   or before, the interval began) and a fresh one. *)
let host_ms () =
  let at, before = !last_calib in
  if now () -. at < calib_every then before
  else begin
    let after = calibrate () in
    last_calib := (now (), after);
    if at = neg_infinity then after else (before +. after) /. 2.0
  end

(* A duration that ended now, scaled to the reference host speed. *)
let at_reference d = d *. reference_ms /. host_ms ()

(* One operation of a workload, as the closed-loop client saw it. *)
type op = {
  id : string;            (* identity: program/config, seedS-caseI, reqN *)
  kind : string;          (* workload-specific class, e.g. miss/hit/upload *)
  ms : float;             (* latency of the timed call *)
  ref_ms : float;         (* [ms] at the reference host speed *)
  fail : string option;   (* check label(s) when the op failed its reference *)
  skip : bool;            (* fuzz: kernel rejected before checking *)
  print : string;         (* result fingerprint for the determinism check *)
}

(* Made right after the op's timed call, so the host speed it is scaled
   by is measured next to it. *)
let op ?(kind = "op") ?(skip = false) ?fail ~id ~ms print =
  { id; kind; ms; ref_ms = at_reference ms; fail; skip; print }

(* Join the labels of every check that failed; [None] when all held. *)
let labels = function [] -> None | ls -> Some (String.concat "+" ls)

(* [Some label] for an exception escaping a timed call: the op failed,
   the run goes on. *)
let exn_label e = "exception:" ^ Printexc.to_string e

(* The window: a fixed amount of work that [seconds] sets at the rate
   each workload ran at when it was written ([`Time]: suite passes,
   fuzz cases, serve requests), so code of any speed does the same ops;
   or exactly [n] ops ([`Ops], the determinism mode). *)
type budget = [ `Time of float | `Ops of int ]

(* The Harrell-Davis estimate of the [q]-quantile: the mean of the
   order statistics, the i-th weighted by the Beta((n+1)q, (n+1)(1-q))
   density integrated over ((i-1)/n, i/n] (by the midpoint rule, at [m]
   points a slot). Where the rank falls next to a gap in the sample, as
   suite's p90 does just below its 482.sphinx3 ops, it moves less from
   run to run than the one or two order statistics the rank lies
   between: over ten suite runs on a 2-vCPU x86-64 VM, p90's IQR/median
   was 9.6% by this estimate and 13.2% by linear interpolation. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a and m = 8 in
  let fn = float_of_int n in
  let alpha = (q *. (fn +. 1.0)) -. 1.0 and beta = ((1.0 -. q) *. (fn +. 1.0)) -. 1.0 in
  let log_density j =
    let x = (float_of_int j +. 0.5) /. float_of_int m /. fn in
    (alpha *. log x) +. (beta *. log (1.0 -. x))
  in
  let logs = Array.init (n * m) log_density in
  let peak = Array.fold_left Float.max neg_infinity logs in
  let w = Array.make n 0.0 in
  Array.iteri (fun j l -> w.(j / m) <- w.(j / m) +. exp (l -. peak)) logs;
  let dot = ref 0.0 in
  Array.iteri (fun i x -> dot := !dot +. (w.(i) *. x)) a;
  !dot /. Array.fold_left ( +. ) 0.0 w

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Repeat a set-up [n] times; the median duration, at the reference
   host speed, is [setup_s] and the last repetition's value is kept. *)
let timed_setup ~n f =
  let rec go i acc last =
    if i = n then (Option.get last, median acc)
    else
      let t0 = now () in
      let v = f () in
      let s = now () -. t0 in
      go (i + 1) (at_reference s :: acc) (Some v)
  in
  go 0 [] None

(* Peak resident set of a process, in MiB ([VmHWM]). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
               float_of_int kb /. 1024.0)
         | _ -> acc)
      nan (String.split_on_char '\n' s)

(* A reported metric: value, unit and the number of samples behind it. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric name unit_ ~samples value = { name; unit_; value; samples }

(* The end-to-end metrics every workload reports from its ops: the
   timings at the reference host speed, and the same as measured
   ([raw_*], in the report only). *)
let op_metrics ~setup_s ~rss ops =
  let n = List.length ops in
  let failed = List.length (List.filter (fun o -> o.fail <> None) ops) in
  let timings prefix lat =
    [ metric (prefix ^ "ops_per_s") "ops/s" ~samples:n
        (float_of_int n /. (sum lat /. 1000.0));
      metric (prefix ^ "op_p50_ms") "ms" ~samples:n (median lat);
      metric (prefix ^ "op_p90_ms") "ms" ~samples:n (quantile 0.9 lat) ]
  in
  timings "" (List.map (fun o -> o.ref_ms) ops)
  @ [ metric "failed_share" "failed/attempted" ~samples:n
        (float_of_int failed /. float_of_int n);
      metric "setup_s" "s" ~samples:(fst setup_s) (snd setup_s);
      metric "peak_rss_mb" "MiB" ~samples:1 rss ]
  @ timings "raw_" (List.map (fun o -> o.ms) ops)
  @ [ metric "host_slowdown" "x" ~samples:n
        (median
           (List.filter_map
              (fun o -> if o.ms > 0.0 then Some (o.ms /. o.ref_ms) else None)
              ops)) ]

(* What a workload hands back to main: its ops (in execution
   order), the metrics and, for a traced run, the per-layer ledger. *)
type outcome = {
  ops : op list;
  metrics : metric list;
  layers : metric list;
  consistent : bool;
      (* every harness-side invariant held: the fuzz oracle caught its
         mislabelled kernel, traced replays reproduced their untraced ops *)
  notes : string list;
}
