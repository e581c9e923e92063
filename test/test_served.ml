(* Tests for janus_served: an in-process daemon on a real unix socket,
   exercised by the library client. The second request for the same
   image must be answered entirely from the warm store, byte-identical;
   a garbage connection must not take the server down. *)

module Served = Janus_served_lib.Served
module Pipeline = Janus_core.Pipeline
module Jcc = Janus_jcc.Jcc
module Obs = Janus_obs.Obs
module Pgo = Janus_pgo.Pgo

let kernel =
  "double v[2048];\n\
   int main() {\n\
   \  for (int i = 0; i < 2048; i++) { v[i] = (double)(i % 7) * 0.5; }\n\
   \  double s = 0.0;\n\
   \  for (int i = 0; i < 2048; i++) { s += v[i]; }\n\
   \  print_float(s);\n\
   \  return 0;\n\
   }"

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "janus-served-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* how long a server may take to stop once it has been asked to *)
let join_deadline = 60.0

(* run [f] against a live server; create_server binds before [serve]
   runs, so connecting cannot race the listener. The server is joined
   only once it has stopped: one that misses its shutdown fails the
   test after [join_deadline] seconds instead of hanging the suite. *)
let with_server ?store ?profile_dir f =
  (* a client that hangs up mid-reply must cost the server an EPIPE
     (counted in served.errors), not kill the test process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = fresh_socket () in
  let store = match store with Some s -> s | None -> Pipeline.store () in
  let server = Served.create_server ~store ?profile_dir ~socket () in
  let stopped = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stopped true)
          (fun () -> Served.serve server))
  in
  let finish () =
    let c = Served.connect ~socket in
    Served.shutdown c;
    Served.disconnect c
  in
  let r =
    match Fun.protect ~finally:finish (fun () -> f socket) with
    | v -> Ok v
    | exception e -> Error e
  in
  let deadline = Unix.gettimeofday () +. join_deadline in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get stopped) then
    Alcotest.failf "server on %s still running %.0fs after shutdown" socket
      join_deadline;
  Domain.join d;
  match r with Ok v -> v | Error e -> raise e

let compile_kernel () =
  (* compiled client-side so the server's store starts genuinely cold *)
  Pipeline.compile ~store:(Pipeline.store ~enabled:false ()) kernel

let test_second_answer_is_warm () =
  with_server (fun socket ->
      let img = compile_kernel () in
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let r1 = Served.schedule c img in
          Alcotest.(check bool) "first answer is cold" false
            r1.Served.s_cache_hit;
          let r2 = Served.schedule c img in
          Alcotest.(check bool) "second answer is warm" true
            r2.Served.s_cache_hit;
          Alcotest.(check string) "warm schedule byte-identical"
            (Bytes.to_string r1.Served.s_schedule)
            (Bytes.to_string r2.Served.s_schedule);
          Alcotest.(check (list int)) "same demotions"
            r1.Served.s_demoted r2.Served.s_demoted;
          (* analysis of the scheduled image is warm too *)
          let a = Served.analyse c img in
          Alcotest.(check bool) "analysis served from store" true
            a.Served.a_cache_hit;
          Alcotest.(check bool) "analysis saw the kernel's loops" true
            (a.Served.a_loops >= 2);
          let m = Served.metrics c in
          let count name =
            match List.assoc_opt name m with Some v -> v | None -> 0
          in
          Alcotest.(check int) "served.schedule counted" 2 (count "served.schedule");
          Alcotest.(check int) "served.analyse counted" 1 (count "served.analyse");
          Alcotest.(check bool) "warm answers counted" true
            (count "served.store_hits" >= 2);
          Alcotest.(check bool) "pipeline counters forwarded" true
            (count "pipeline.cache.hits" > 0)))

let test_restart_answers_from_disk () =
  Test_pipeline.with_temp_dir @@ fun dir ->
  let img = compile_kernel () in
  let ask socket =
    let c = Served.connect ~socket in
    Fun.protect
      ~finally:(fun () -> Served.disconnect c)
      (fun () ->
        let r = Served.schedule c img in
        (r, Served.metrics c))
  in
  let r1, _ = with_server ~store:(Pipeline.store ~dir ()) ask in
  (* a brand-new daemon process over the same directory: its memory
     layer is empty, yet the answer must be warm and byte-identical *)
  let r2, m2 = with_server ~store:(Pipeline.store ~dir ()) ask in
  Alcotest.(check bool) "restarted daemon answers warm" true
    r2.Served.s_cache_hit;
  Alcotest.(check string) "restarted daemon answers identically"
    (Bytes.to_string r1.Served.s_schedule)
    (Bytes.to_string r2.Served.s_schedule);
  Alcotest.(check (list int)) "same demotions" r1.Served.s_demoted
    r2.Served.s_demoted;
  Alcotest.(check int) "same findings" r1.Served.s_findings
    r2.Served.s_findings;
  (* the verdict came back from disk too: nothing was re-verified *)
  let count name = Option.value ~default:(-1) (List.assoc_opt name m2) in
  Alcotest.(check int) "no verification after restart" 0
    (count "pipeline.cache.verified.misses");
  Alcotest.(check int) "verdict loaded from disk" 1
    (count "pipeline.cache.verified.disk.hits")

(* The daemon keys an image by the bytes it received. A profile filed
   under the client's [image_key] must therefore reach the schedule:
   the first answer after the upload is computed under the profile's
   generation, and the next is a warm, byte-identical copy of it. *)
let test_upload_fed_reply () =
  Test_pipeline.with_temp_dir @@ fun client_dir ->
  Test_pipeline.with_temp_dir @@ fun profile_dir ->
  let img = compile_kernel () in
  let collected = Pgo.collect ~store:(Pgo.Store.open_ client_dir) ~input:[] img in
  let payload =
    In_channel.with_open_bin
      (Filename.concat client_dir (Pipeline.image_key img ^ ".jprof"))
      In_channel.input_all
  in
  with_server ~profile_dir (fun socket ->
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let up = Served.upload c (Bytes.of_string payload) in
          Alcotest.(check string) "filed under the client's key"
            (Pipeline.image_key img) up.Served.u_image;
          let generation = (Pgo.evidence collected).Pipeline.ev_generation in
          let r1 = Served.schedule c img in
          Alcotest.(check bool) "first answer is computed" false
            r1.Served.s_cache_hit;
          Alcotest.(check string) "first answer uses the uploaded evidence"
            generation r1.Served.s_generation;
          let r2 = Served.schedule c img in
          Alcotest.(check bool) "second answer is warm" true
            r2.Served.s_cache_hit;
          Alcotest.(check string) "same generation" generation
            r2.Served.s_generation;
          Alcotest.(check string) "same schedule bytes"
            (Bytes.to_string r1.Served.s_schedule)
            (Bytes.to_string r2.Served.s_schedule)))

let test_garbage_connection_survived () =
  with_server (fun socket ->
      (* a client speaking the wrong protocol: the server must drop the
         connection and keep serving the next one *)
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let junk = Bytes.of_string "GET / HTTP/1.1\r\n\r\n" in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      let img = compile_kernel () in
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          let r = Served.schedule c img in
          Alcotest.(check bool) "real request still answered" true
            (Bytes.length r.Served.s_schedule > 0)))

(* A frame another build sent is refused at its magic, before any
   Marshal decoding; the daemon counts it and keeps serving. The frame
   is stamped with the release version, which does not follow the
   sources and so cannot tell two builds of one release apart. *)
let test_other_build_frame_refused () =
  with_server (fun socket ->
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      (* a Metrics request (the request type's first constant
         constructor), padded to the length of this build's magic so
         that the daemon reads a whole magic instead of waiting *)
      let payload = Marshal.to_bytes 0 [] in
      let frame = Buffer.create 64 in
      Buffer.add_string frame
        (Printf.sprintf "JSRV1/%s\n" Janus_core.Version.version);
      Buffer.add_int32_be frame (Int32.of_int (Bytes.length payload));
      Buffer.add_bytes frame payload;
      let magic_len =
        String.length (Printf.sprintf "JSRV1/%s\n" Janus_core.Build_id.id)
      in
      while Buffer.length frame < magic_len do
        Buffer.add_char frame '\n'
      done;
      let b = Buffer.to_bytes frame in
      ignore (Unix.write fd b 0 (Bytes.length b));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reply = Bytes.create 64 in
      let n =
        try Unix.read fd reply 0 64
        with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      Unix.close fd;
      Alcotest.(check int) "no reply to another build's frame" 0 n;
      let c = Served.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Served.disconnect c)
        (fun () ->
          Alcotest.(check (option int)) "refusal counted" (Some 1)
            (List.assoc_opt "served.errors" (Served.metrics c))))

let tests =
  [
    Alcotest.test_case "second answer is warm and identical" `Quick
      test_second_answer_is_warm;
    Alcotest.test_case "restarted daemon answers from disk" `Quick
      test_restart_answers_from_disk;
    Alcotest.test_case "an uploaded profile feeds the next answers" `Quick
      test_upload_fed_reply;
    Alcotest.test_case "garbage connection does not kill the server" `Quick
      test_garbage_connection_survived;
    Alcotest.test_case "frame from another build is refused" `Quick
      test_other_build_frame_refused;
  ]
