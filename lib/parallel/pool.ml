let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

type failure =
  | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
  | Timed_out of { wall_seconds : float; limit : float }

let failure_message = function
  | Raised { exn; _ } -> Printexc.to_string exn
  | Timed_out { wall_seconds; limit } ->
      Printf.sprintf "timed out: %.2fs (limit %.2fs)" wall_seconds limit

exception Kill_worker of string

let () =
  Printexc.register_printer (function
    | Kill_worker msg -> Some (Printf.sprintf "worker killed: %s" msg)
    | _ -> None)

type event =
  | Detached of { index : int; wall_seconds : float; limit : float }
  | Died of { index : int; exn : exn }

(* Apply [f] to element [i]: the per-element accounting every path
   shares. A cooperatively canceled element is a clean early return,
   not a crash: the worker unwound itself at a budget poll, so it is
   alive and takes the next element — no detach, no replacement. An
   element that finished over budget without being detached (supervisor
   poll lag, or the inline path) is still reported timed out. *)
let run_item ?timeout_s (f : 'a -> 'b) (i : int) (x : 'a) :
    ('b, failure) result =
  let t0 = Fv_obs.Clock.now () in
  let r =
    match Fv_obs.Span.with_row i (fun () -> f x) with
    | y -> Ok y
    | exception Budget.Canceled { elapsed_ms; limit_ms } ->
        let limit = Option.value limit_ms ~default:elapsed_ms /. 1000.0 in
        Error (Timed_out { wall_seconds = elapsed_ms /. 1000.0; limit })
    | exception e ->
        Error (Raised { exn = e; backtrace = Printexc.get_raw_backtrace () })
  in
  let dt = Fv_obs.Clock.elapsed ~since:t0 in
  Fv_obs.Metrics.incr Fv_obs.Metrics.global "pool_tasks";
  Fv_obs.Metrics.observe
    ~labels:[ ("domain", string_of_int (Domain.self () :> int)) ]
    Fv_obs.Metrics.global "pool_task_seconds" dt;
  match (r, timeout_s) with
  | Ok _, Some limit when dt > limit ->
      Error (Timed_out { wall_seconds = dt; limit })
  | _ -> r

(* ---------------- the process-wide pool ---------------- *)

type worker = {
  slot : int;  (** position in the pool; a job with [lanes = k] uses [< k] *)
  mutable domain : unit Domain.t option;
  finished : bool Atomic.t;  (** set as the domain's last action *)
  mutable retired : bool;  (** exit when next idle ({!retire_idle}) *)
}

type step = Ran | Exhausted | Quit  (** detached or died, and replaced *)

(* A call as the workers see it, with its element type erased. *)
type job = { mutable lanes : int; step : worker -> step }

(* Everything below [lock] is guarded by it. [jobs] holds the calls
   that may still have unclaimed elements, oldest first; [zombies] the
   replaced workers awaiting [Domain.join]. *)
let lock = Mutex.create ()
let work = Condition.create ()
let jobs : job list ref = ref []
let slots : worker option array =
  Array.make (Domain.recommended_domain_count ()) None
let zombies : worker list ref = ref []
let in_flight = ref 0

(* true on pool workers and on a caller running its own lane: a nested
   call there runs inline, so no lane waits on lanes waiting on it *)
let on_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop (w : worker) =
  (* holds [lock] on entry, never on return *)
  if w.retired then Mutex.unlock lock
  else
    match List.find_opt (fun j -> w.slot < j.lanes) !jobs with
    | None ->
        Condition.wait work lock;
        worker_loop w
    | Some j ->
        Mutex.unlock lock;
        let rec drain () =
          match j.step w with
          | Ran -> drain ()
          | Exhausted ->
              Mutex.lock lock;
              jobs := List.filter (fun j' -> j' != j) !jobs;
              worker_loop w
          | Quit -> ()
        in
        drain ()

(* Spawn a worker into [slot]; caller holds [lock]. *)
let spawn slot =
  let w =
    { slot; domain = None; finished = Atomic.make false; retired = false }
  in
  w.domain <-
    Some
      (Domain.spawn (fun () ->
           Domain.DLS.set on_worker true;
           Mutex.lock lock;
           worker_loop w;
           Atomic.set w.finished true));
  slots.(slot) <- Some w

(* Give [w]'s slot to a fresh worker, unless that already happened (a
   detached worker can die later); caller holds [lock]. [w] itself
   finishes its current element and exits. *)
let replace (w : worker) =
  match slots.(w.slot) with
  | Some w' when w' == w ->
      zombies := w :: !zombies;
      spawn w.slot;
      Fv_obs.Metrics.incr Fv_obs.Metrics.global "pool_worker_restarts"
  | _ -> ()

(* Join exited workers and retire their metrics shards: after the join
   the domain is gone, so the fold into the retained accumulator cannot
   lose a racing increment. *)
let join (ws : worker list) =
  List.iter
    (fun w ->
      Option.iter
        (fun d ->
          Domain.join d;
          Fv_obs.Metrics.retire Fv_obs.Metrics.global
            ~domain:(Domain.get_id d :> int))
        w.domain)
    ws

let reap () =
  join
    (Mutex.protect lock (fun () ->
         let d, live =
           List.partition (fun w -> Atomic.get w.finished) !zombies
         in
         zombies := live;
         d))

(* Stop and join the parked workers, unless a fanned-out call is in
   flight: on a 2-vCPU VM one parked worker made [Figure8.run
   ~domains:1] 7–15% slower. *)
let retire_idle () =
  join
    (Mutex.protect lock (fun () ->
         let ws =
           if !in_flight > 0 then []
           else List.filter_map Fun.id (Array.to_list slots)
         in
         List.iter
           (fun w ->
             slots.(w.slot) <- None;
             w.retired <- true)
           ws;
         Condition.broadcast work;
         ws));
  reap ()

(* Per-element slot protocol. A lane claims an element by storing a
   fresh [Running] token and publishes its result with a
   compare-and-set against that exact token; the caller detaches a
   timed-out element the same way. The loser of the CAS stands down: a
   detached worker quits, its late result discarded. [lose] hands the
   claiming lane to a replacement. *)
type 'b cell =
  | Free
  | Running of { start : float; lose : unit -> unit }
  | Done of ('b, failure) result

(* Read the one byte [answered] writes into the call's pipe, waiting at
   most [timeout] seconds (forever if negative); [true] once read. *)
let rec await_byte fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> Unix.read fd (Bytes.create 1) 0 1 = 1
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_byte fd timeout

let map ?domains ?timeout_s ?on_event (f : 'a -> 'b) (xs : 'a list) :
    ('b, failure) result list =
  let requested =
    match domains with
    | Some d -> min (Array.length slots) (max 1 d)
    | None -> default_domains ()
  in
  let nested = Domain.DLS.get on_worker in
  match xs with
  | [] -> []
  | _ when nested || (timeout_s = None && requested = 1) ->
      if not nested then retire_idle ();
      List.mapi (run_item ?timeout_s f) xs
  | [ _ ] when timeout_s = None -> List.mapi (run_item f) xs
  | _ ->
      reap ();
      let items = Array.of_list xs in
      let n = Array.length items in
      let cells = Array.init n (fun _ -> Atomic.make Free) in
      let cursor = Atomic.make 0 in
      let remaining = Atomic.make n in
      let events = ref [] (* guarded by [lock] *) in
      let rfd, wfd = Unix.pipe ~cloexec:true () in
      (* the lane that answers the last element wakes the caller *)
      let answered () =
        if Atomic.fetch_and_add remaining (-1) = 1 then
          ignore (Unix.write_substring wfd "." 0 1)
      in
      (* recorded before the answer, so the caller sees it when it wakes *)
      let lost ev lose =
        Mutex.protect lock (fun () ->
            events := ev :: !events;
            lose ())
      in
      let step lose =
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then Exhausted
        else begin
          let tok = Running { start = Fv_obs.Clock.now (); lose } in
          Atomic.set cells.(i) tok;
          let r = run_item ?timeout_s f i items.(i) in
          let published = Atomic.compare_and_set cells.(i) tok (Done r) in
          (* an unpublished element was detached, and its lane replaced *)
          let died =
            match r with
            | Error (Raised { exn = Kill_worker _ as exn; _ }) ->
                if published then lost (Died { index = i; exn }) lose;
                true
            | _ -> false
          in
          if published then answered ();
          if published && not died then Ran else Quit
        end
      in
      (* [lanes] elements run at once. Without a timeout the caller is
         one of them, so no domain sits blocked while the call runs: a
         blocked domain still takes part in every stop-the-world minor
         collection. With one armed it supervises instead. *)
      let lanes = min n requested in
      let job =
        {
          lanes = (if timeout_s = None then lanes - 1 else lanes);
          step = (fun w -> step (fun () -> replace w));
        }
      in
      Mutex.protect lock (fun () ->
          incr in_flight;
          for s = 0 to job.lanes - 1 do
            if Option.is_none slots.(s) then spawn s
          done;
          jobs := !jobs @ [ job ];
          Condition.broadcast work);
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect lock (fun () ->
              decr in_flight;
              jobs := List.filter (fun j -> j != job) !jobs);
          Unix.close rfd;
          Unix.close wfd)
        (fun () ->
          (match timeout_s with
          | None ->
              (* a caller lane that dies hands its lane to the worker in
                 the next slot *)
              let hand_over () =
                job.lanes <- lanes;
                if Option.is_none slots.(lanes - 1) then spawn (lanes - 1);
                Fv_obs.Metrics.incr Fv_obs.Metrics.global
                  "pool_worker_restarts";
                Condition.broadcast work
              in
              Domain.DLS.set on_worker true;
              while step hand_over = Ran do () done;
              Domain.DLS.set on_worker false;
              ignore (await_byte rfd (-1.0))
          | Some limit ->
              (* sleep until the call completes or the earliest running
                 element reaches its deadline, detaching any past it *)
              let rec supervise () =
                let now = Fv_obs.Clock.now () in
                let next = ref (now +. limit) in
                Array.iteri
                  (fun i cell ->
                    match Atomic.get cell with
                    | Running { start; lose } as tok when now -. start > limit
                      ->
                        let wall_seconds = now -. start in
                        let t = Timed_out { wall_seconds; limit } in
                        if Atomic.compare_and_set cell tok (Done (Error t))
                        then begin
                          lost (Detached { index = i; wall_seconds; limit })
                            lose;
                          answered ()
                        end
                    | Running { start; _ } ->
                        next := Float.min !next (start +. limit)
                    | _ -> ())
                  cells;
                if not (await_byte rfd (Float.max 1e-4 (!next -. now))) then
                  supervise ()
              in
              supervise ());
          let evs = Mutex.protect lock (fun () -> List.rev !events) in
          Option.iter (fun g -> List.iter g evs) on_event;
          List.init n (fun i ->
              match Atomic.get cells.(i) with Done r -> r | _ -> assert false))

let map_exn ?domains (f : 'a -> 'b) (xs : 'a list) : 'b list =
  List.map
    (function
      | Ok y -> y
      | Error (Raised { exn; backtrace }) ->
          Printexc.raise_with_backtrace exn backtrace
      | Error (Timed_out _ as t) -> failwith (failure_message t))
    (map ?domains f xs)
