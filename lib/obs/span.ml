(** Hierarchical monotonic-clock spans through a pluggable sink.

    The default sink is a no-op: until a recorder is installed,
    {!with_} costs one physical-equality test and runs the thunk — it
    does not even read the clock — so instrumented code paths are free
    in ordinary runs and the simulation statistics cannot shift.

    When a recorder is installed ([--trace-out]), every span records a
    completed slice {[name; cat; pid; tid; t0; t1]} against the
    monotonic {!Clock}. Nesting comes from call structure: spans opened
    inside a span lie within its [t0..t1] window, which is exactly the
    containment Perfetto uses to stack ["ph":"X"] slices. By convention
    [pid] is the recording domain and [tid] the pool row being
    evaluated ({!set_tid} / {!with_row}, via domain-local state), so a
    parallel harness run renders as one track per (domain, row). *)

type event = {
  name : string;
  cat : string;
  pid : int;
  tid : int;
  t0 : float;  (** {!Clock.now} at entry *)
  t1 : float;  (** {!Clock.now} at exit *)
}

type sink = { record : event -> unit }

let null : sink = { record = (fun _ -> ()) }

(* the installed sink; [null] means observability is off *)
let current : sink ref = ref null

let enabled () = !current != null

(** The row index spans on this domain should report as [tid]
    (default 0); set by the pool around each element. *)
let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_tid (i : int) : unit = Domain.DLS.set tid_key i

(** [with_ name f] runs [f ()]; when a recorder is installed, records a
    span around it. [pid] defaults to the calling domain's id and [tid]
    to the domain's current row ({!set_tid}). Exceptions propagate; the
    span is still recorded (the failing slice is the one you want to
    see in the timeline). *)
let with_ ?(cat = "") ?pid ?tid (name : string) (f : unit -> 'a) : 'a =
  let sink = !current in
  if sink == null then f ()
  else begin
    let pid =
      match pid with Some p -> p | None -> (Domain.self () :> int)
    in
    let tid =
      match tid with Some t -> t | None -> Domain.DLS.get tid_key
    in
    let t0 = Clock.now () in
    let finish () =
      sink.record { name; cat; pid; tid; t0; t1 = Clock.now () }
    in
    match f () with
    | y ->
        finish ();
        y
    | exception e ->
        finish ();
        raise e
  end

(** [with_row i f]: set this domain's span [tid] to row [i], run [f]
    under a ["row i"] span, restore the previous [tid]. *)
let with_row (i : int) (f : unit -> 'a) : 'a =
  if not (enabled ()) then f ()
  else begin
    let prev = Domain.DLS.get tid_key in
    set_tid i;
    Fun.protect
      ~finally:(fun () -> set_tid prev)
      (fun () -> with_ ~cat:"pool" ~tid:i (Printf.sprintf "row %d" i) f)
  end

(* ------------------------------------------------------------------ *)
(* The bundled recorder: a mutex-protected event buffer.               *)
(* ------------------------------------------------------------------ *)

type recorder = { lock : Mutex.t; buf : event Dynbuf.t }

let dummy_event = { name = ""; cat = ""; pid = 0; tid = 0; t0 = 0.; t1 = 0. }

let recorder () : recorder =
  { lock = Mutex.create (); buf = Dynbuf.create ~capacity:256 dummy_event }

let sink_of (r : recorder) : sink =
  { record = (fun e -> Mutex.protect r.lock (fun () -> Dynbuf.push r.buf e)) }

(** Install [r] as the process-wide span sink. Install before the first
    fan-out you want traced: pool workers persist across calls and read
    the sink reference at each element, ordered after the install by
    the pool's hand-off; it only transitions null -> installed from the
    main domain. *)
let install (r : recorder) : unit = current := sink_of r

let uninstall () : unit = current := null

(** The recorded events so far, oldest first; clears the buffer. *)
let drain (r : recorder) : event list =
  Mutex.protect r.lock (fun () ->
      let es = Dynbuf.to_list r.buf in
      Dynbuf.clear r.buf;
      es)
