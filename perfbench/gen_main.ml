(** The generator role: build the stream, time a few cold daemon
    starts, then drive the daemon run.py started and report. *)

(** Read one response line. Reads whole chunks: on a packet socket a
    short read would drop the rest of the packet. Nothing else is in
    flight when this is called, so the chunk is exactly the line. *)
let read_line_fd fd =
  let b = Buffer.create 256 and chunk = Bytes.create 262144 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "daemon closed its output before answering"
    | k ->
        Buffer.add_subbytes b chunk 0 k;
        if Bytes.get chunk (k - 1) = '\n' then Buffer.sub b 0 (Buffer.length b - 1)
        else go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let warm_up_ok answer =
  if not (Closed_loop.starts_with ~prefix:"(response (status ok)" answer) then
    failwith ("warm-up request not answered ok: " ^ answer)

let drain_to_eof fd =
  let buf = Bytes.create 65536 in
  while Unix.read fd buf 0 (Bytes.length buf) > 0 do () done

(** Spawn [daemon], answer one warm-up request, stop it: seconds from
    spawn to the answer. *)
let setup_probe (daemon : string list) (warmup : string) : float =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process (List.hd daemon) (Array.of_list daemon) req_r resp_w devnull
  in
  List.iter Unix.close [ req_r; resp_w; devnull ];
  write_all req_w (warmup ^ "\n");
  let answer = read_line_fd resp_r in
  let dt = Clock.s_since t0 in
  Unix.close req_w;
  drain_to_eof resp_r;
  Unix.close resp_r;
  ignore (Unix.waitpid [] pid);
  warm_up_ok answer;
  dt

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(** Consecutive slices of [slice_s] seconds of the timed window (a
    trailing partial slice is dropped): per slice, [ok] answers per
    second, p50 and p99 latency, and the sample count. *)
let slices (r : Closed_loop.result) ~(slice_s : float) =
  let arr = r.Closed_loop.arrivals_ns in
  let n = Array.length arr in
  let k = max 1 (int_of_float (r.Closed_loop.wall_s /. slice_s)) in
  let j = ref 0 in
  List.init k (fun s ->
      let lo = !j in
      while !j < n && arr.(!j) < float_of_int (s + 1) *. slice_s *. 1e9 do
        incr j
      done;
      let lat = Array.sub r.Closed_loop.latencies_ns lo (!j - lo) in
      Array.sort compare lat;
      let ok = ref 0 in
      for i = lo to !j - 1 do
        if r.Closed_loop.goods.(i) then incr ok
      done;
      (float_of_int !ok /. slice_s, percentile lat 0.50, percentile lat 0.99, !j - lo))

let main ~workload ~seed ~seconds ~slice_s ~window ~warm ~length ~setup_reps ~daemon =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w = Workload.make workload ~seed ~length in
  let probes = List.init setup_reps (fun _ -> setup_probe daemon w.Workload.warmup_line) in
  (* run.py notes the clock and starts the daemon on our stdin/stdout;
     the warm-up request waits in the pipe until the daemon reads it *)
  prerr_endline "ready";
  write_all Unix.stdout (w.Workload.warmup_line ^ "\n");
  warm_up_ok (read_line_fd Unix.stdin);
  let warm_answer_ns = Clock.now_ns () in
  let r = Closed_loop.run w ~window ~warm ~seconds ~req_fd:Unix.stdout ~resp_fd:Unix.stdin in
  drain_to_eof Unix.stdin;
  let mismatches = w.Workload.verify r.Closed_loop.answered in
  let sl = slices r ~slice_s in
  let col f = Json.L (List.map f sl) in
  let open Json in
  prerr_endline
    (to_string
       (O
          [
            ("setup_probe_s", L (List.map (fun s -> F s) probes));
            ("warm_answer_ns", S (Int64.to_string warm_answer_ns));
            ("sent", I r.Closed_loop.sent);
            ("answered", I r.Closed_loop.answered);
            ("bad", I (List.length r.Closed_loop.bad_positions));
            ("mismatches", I mismatches);
            ("wall_s", F r.Closed_loop.wall_s);
            ("slice_ok_per_s", col (fun (t, _, _, _) -> F t));
            ("slice_p50_ns", col (fun (_, p, _, _) -> F p));
            ("slice_p99_ns", col (fun (_, _, p, _) -> F p));
            ("slice_samples", col (fun (_, _, _, n) -> I n));
            ("behind_frac", F r.Closed_loop.behind_frac);
            ("flushes", I r.Closed_loop.flushes);
          ]))
