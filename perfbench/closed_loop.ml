(** The closed-loop load generator: one thread, one pipe pair to the
    daemon, a fixed window of outstanding requests.

    The daemon answers in admission order when no deadlines are set, so
    the k-th response line answers the k-th request; the id, where the
    request carried one, is compared as a guard. Writes are
    non-blocking and multiplexed with reads through [select], so a full
    request pipe can never deadlock against a full response pipe. *)

type result = {
  sent : int;
  answered : int;  (** responses read, warm-up and drain included *)
  wall_s : float;  (** timed window *)
  latencies_ns : float array;  (** write to response, timed window *)
  arrivals_ns : float array;  (** when each of those arrived, from the window start *)
  goods : bool array;  (** and whether it was a clean, correct [ok] *)
  behind_frac : float;
      (** 1 - time-averaged outstanding / window over the timed window:
          how far the generator fell behind keeping its window full *)
  flushes : int;
      (** reads that ended on a line boundary; on a packet socket, one
          per daemon flush, which the server does once per batch *)
  bad_positions : int list;  (** positions that failed a check *)
}

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

let contains_from s ~from sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go (max 0 from)

(** Is this response line a clean [ok] for position [i]? *)
let classify (w : Workload.t) (i : int) (resp : string) : bool =
  let head =
    if w.Workload.has_id i then
      "(response (id " ^ Workload.id_of_pos w.Workload.kind i ^ ") (status ok)"
    else "(response (status ok)"
  in
  starts_with ~prefix:head resp
  (* brownout marks are appended at the very end of the line *)
  && (not (contains_from resp ~from:(String.length resp - 48) "(brownout "))
  && w.Workload.check i resp

let rec write_some fd s off =
  match Unix.single_write_substring fd s off (String.length s - off) with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some fd s off

(** Drive [w] over [req_fd]/[resp_fd]: [warm] untimed requests, then a
    timed window of [seconds], then stop sending and drain. [req_fd] is
    closed at the end; the caller reads the daemon's EOF. *)
let run (w : Workload.t) ~(window : int) ~(warm : int) ~(seconds : float)
    ~(req_fd : Unix.file_descr) ~(resp_fd : Unix.file_descr) : result =
  Unix.set_nonblock req_fd;
  let n = w.Workload.length in
  (* floats, not boxed int64s: ns since boot are exact in a double *)
  let send_ts = Array.make n 0.0 in
  let lat = Array.make n 0.0 and arr = Array.make n 0.0 in
  let goods = Array.make n false in
  let n_lat = ref 0 in
  let sent = ref 0 and answered = ref 0 in
  let bad = ref [] in
  (* pending output: the current line and how much of it is written *)
  let out = Queue.create () in
  let cur = ref "" and cur_off = ref 0 in
  let inbuf = Bytes.create 262144 in
  let acc = Buffer.create 65536 in
  let t_start = ref 0L and t_end = ref Int64.max_int in
  let timing = ref false and stopping = ref false in
  let t_stop = ref 0L in
  (* time-weighted outstanding over the timed window *)
  let area = ref 0.0 and last_t = ref 0L in
  let account now =
    if !timing then
      area :=
        !area
        +. Int64.to_float (Int64.sub now !last_t)
           *. float_of_int (!sent - !answered);
    last_t := now
  in
  let pending () = !cur_off < String.length !cur || not (Queue.is_empty out) in
  let fill () =
    while (not !stopping) && !sent - !answered < window && !sent < n do
      let now = Clock.now_ns () in
      account now;
      send_ts.(!sent) <- Int64.to_float now;
      Queue.add (w.Workload.line !sent ^ "\n") out;
      incr sent
    done;
    if !sent >= n && not !stopping then begin
      (* ran out of pre-rendered requests: end the window here *)
      stopping := true;
      if !timing then begin
        t_stop := Clock.now_ns ();
        timing := false
      end
    end
  in
  let flush_out () =
    let continue = ref true in
    while !continue do
      if !cur_off >= String.length !cur then
        if Queue.is_empty out then continue := false
        else begin
          cur := Queue.pop out;
          cur_off := 0
        end
      else begin
        let k = write_some req_fd !cur !cur_off in
        if k = 0 then continue := false else cur_off := !cur_off + k
      end
    done
  in
  let on_line resp =
    let now = Clock.now_ns () in
    let i = !answered in
    account now;
    incr answered;
    let good = classify w i resp in
    if not good then bad := i :: !bad;
    if !timing then begin
      if now >= !t_end then begin
        t_stop := now;
        timing := false;
        stopping := true
      end
      else begin
        lat.(!n_lat) <- Int64.to_float now -. send_ts.(i);
        arr.(!n_lat) <- Int64.to_float (Int64.sub now !t_start);
        goods.(!n_lat) <- good;
        incr n_lat
      end
    end
    else if (not !stopping) && !answered = warm then begin
      timing := true;
      t_start := now;
      last_t := now;
      t_end := Int64.add now (Int64.of_float (seconds *. 1e9))
    end
  in
  let split len =
    let s = ref 0 in
    for k = 0 to len - 1 do
      if Bytes.get inbuf k = '\n' then begin
        Buffer.add_subbytes acc inbuf !s (k - !s);
        on_line (Buffer.contents acc);
        Buffer.clear acc;
        s := k + 1
      end
    done;
    Buffer.add_subbytes acc inbuf !s (len - !s)
  in
  if warm = 0 then begin
    timing := true;
    t_start := Clock.now_ns ();
    last_t := !t_start;
    t_end := Int64.add !t_start (Int64.of_float (seconds *. 1e9))
  end;
  let eof = ref false and flushes = ref 0 in
  while (not !eof) && ((not !stopping) || !answered < !sent) do
    fill ();
    flush_out ();
    let wr = if pending () then [ req_fd ] else [] in
    match Unix.select [ resp_fd ] wr [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, wv, _ ->
        if wv <> [] then flush_out ();
        if r <> [] then begin
          let k = Unix.read resp_fd inbuf 0 (Bytes.length inbuf) in
          if k = 0 then eof := true
          else begin
            if Bytes.get inbuf (k - 1) = '\n' then incr flushes;
            split k
          end
        end
  done;
  if !eof && !answered < !sent then
    failwith
      (Printf.sprintf "daemon closed its output after %d of %d answers"
         !answered !sent);
  Unix.close req_fd;
  let wall_ns =
    Int64.to_float (Int64.sub (if !t_stop = 0L then !last_t else !t_stop) !t_start)
  in
  {
    sent = !sent;
    answered = !answered;
    wall_s = wall_ns /. 1e9;
    latencies_ns = Array.sub lat 0 !n_lat;
    arrivals_ns = Array.sub arr 0 !n_lat;
    goods = Array.sub goods 0 !n_lat;
    behind_frac =
      (if wall_ns > 0.0 then 1.0 -. (!area /. wall_ns /. float_of_int window)
       else 0.0);
    flushes = !flushes;
    bad_positions = List.rev !bad;
  }
