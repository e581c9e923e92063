(* The benchmark's own checks are live: each test feeds one of its op
   paths an input whose reference must not match, and fails if the
   check that should catch it is removed. *)

open Hostbench
module Suite = Janus_suite.Suite
module Pipeline = Janus_core.Pipeline
module Served = Janus_served_lib.Served
module Oracle = Janus_fuzz_lib.Oracle
module Run = Janus_vm.Run

let label = Alcotest.(option string)

let fuzz_mislabelled () =
  let o = Fuzz_wl.run_op ~id:"mislabelled" (fun () -> Oracle.mislabelled) in
  Alcotest.(check bool) "mislabelled kernel is a failed op" true (o.Common.fail <> None);
  let failed_share =
    List.find
      (fun (m : Common.metric) -> m.Common.name = "failed_share")
      (Common.op_metrics ~setup_s:(1, 0.0) ~rss:0.0 [ o ])
  in
  Alcotest.(check (float 0.0)) "counted in failed_share" 1.0 failed_share.Common.value;
  let ok = Fuzz_wl.run_op ~id:"seed2-case1" (fun () -> Fuzz_wl.sample ~seed:2 1) in
  Alcotest.check label "a passing case is not failed" None ok.Common.fail

let serve_flipped_byte () =
  let b = Suite.adv_fission in
  let image = Suite.compile b in
  let x =
    { Serve_wl.name = "adv.fission@gcc-O3"; bench = b; image;
      digest = Pipeline.image_key image }
  in
  let expected = Serve_wl.reference_reply ~store:(Pipeline.store ()) x in
  let reply bytes =
    Ok
      { Served.s_schedule = bytes; s_demoted = expected.Serve_wl.e_demoted;
        s_findings = expected.Serve_wl.e_findings; s_cache_hit = false;
        s_generation = "" }
  in
  let op bytes =
    Serve_wl.request_op ~id:"req0" ~ms:1.0 ~first:true ~expected
      ~deploy:(fun _ _ -> None) (reply bytes)
  in
  let intact = Bytes.copy expected.Serve_wl.e_bytes in
  Alcotest.check label "the reference reply passes" None (op intact).Common.fail;
  let flipped = Bytes.copy intact in
  let i = Bytes.length flipped - 1 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
  Alcotest.check label "one flipped byte fails" (Some "reply_bytes")
    (op flipped).Common.fail

let suite_perturbed_digest () =
  let b = Suite.adv_fission in
  let img = Suite.compile b in
  let e = List.assoc "dbm" Suite_wl.configs in
  let op ~perturb =
    let reference ~model_cache =
      let r = Suite_wl.reference b img ~model_cache in
      if perturb then { r with Run.mem_digest = Digest.string r.Run.mem_digest }
      else r
    in
    fst
      (Suite_wl.run_op
         ~run:(fun () -> Suite_wl.exec ~store:(Pipeline.store ()) b img e)
         ~reference ~id:"adv.fission/dbm" e)
  in
  Alcotest.check label "native's own digest passes" None (op ~perturb:false).Common.fail;
  Alcotest.check label "a perturbed native digest fails" (Some "mem_digest")
    (op ~perturb:true).Common.fail

let quantiles () =
  let xs = List.init 99 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median of 1..99" 50.0 (Common.quantile 0.5 xs);
  Alcotest.(check (float 1e-6)) "p90 of 1..99" 89.6 (Common.quantile 0.9 xs);
  Alcotest.(check (float 1e-9)) "constant sample" 7.0
    (Common.quantile 0.9 (List.init 10 (fun _ -> 7.0)))

let () =
  Alcotest.run "hostbench"
    [ ( "liveness",
        [ Alcotest.test_case "fuzz op fails the mislabelled kernel" `Quick
            fuzz_mislabelled;
          Alcotest.test_case "serve reply with a flipped byte fails" `Quick
            serve_flipped_byte;
          Alcotest.test_case "suite op fails a perturbed native digest" `Quick
            suite_perturbed_digest ] );
      ( "statistics",
        [ Alcotest.test_case "Harrell-Davis quantiles" `Quick quantiles ] ) ]
