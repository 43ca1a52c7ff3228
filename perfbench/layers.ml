(** In-memory spans for the traced run, and per-layer self time.

    Two sources feed one buffer:
    - the benchmark's own spans ({!with_}), around calls into each
      layer's public functions, stamped on the ns clock;
    - the program's existing phases, read through an [Fv_obs.Span]
      sink. The program stamps them on its own coarser clock, so the
      sink re-stamps each on the ns clock when it closes: end = now,
      start = end - the program's duration.

    Spans are recorded when they close, so on one domain they arrive in
    post-order: children before their parent. A closing span adopts the
    closed spans that ended after it started (minus a tolerance for the
    program clock's quantum); its self time is its duration minus theirs.
    Nothing is written until the run ends. *)

type span = { name : string; dom : int; t0 : int64; t1 : int64 }

let lock = Mutex.create ()
let buf : span list ref = ref []
let seen_tbl : (string, int) Hashtbl.t = Hashtbl.create 32

let record name dom t0 t1 =
  Mutex.protect lock (fun () ->
      buf := { name; dom; t0; t1 } :: !buf;
      Hashtbl.replace seen_tbl name
        (1 + Option.value ~default:0 (Hashtbl.find_opt seen_tbl name)))

(** Spans of [name] recorded so far, drained or not. *)
let seen (name : string) : int =
  Mutex.protect lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt seen_tbl name))

let dom () = (Domain.self () :> int)

(** A benchmark span around [f ()]. *)
let with_ (name : string) (f : unit -> 'a) : 'a =
  let t0 = Clock.now_ns () in
  match f () with
  | y ->
      record name (dom ()) t0 (Clock.now_ns ());
      y
  | exception e ->
      record name (dom ()) t0 (Clock.now_ns ());
      raise e

(** Read the program's phases: install a span sink naming each
    ["cat:name"] (pool rows all become ["pool:row"]). *)
let install () =
  Fv_obs.Span.current :=
    {
      Fv_obs.Span.record =
        (fun (e : Fv_obs.Span.event) ->
          let t1 = Clock.now_ns () in
          let dur = Int64.of_float ((e.Fv_obs.Span.t1 -. e.Fv_obs.Span.t0) *. 1e9) in
          let name =
            if e.Fv_obs.Span.cat = "pool" then "pool:row"
            else e.Fv_obs.Span.cat ^ ":" ^ e.Fv_obs.Span.name
          in
          record name e.Fv_obs.Span.pid (Int64.sub t1 (max 0L dur)) t1);
    }

let uninstall () = Fv_obs.Span.uninstall ()

(** Take every recorded span, oldest close first, and clear. *)
let drain () : span list =
  Mutex.protect lock (fun () ->
      let s = List.rev !buf in
      buf := [];
      s)

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* the program clock's quantum is 238 ns; children ending closer than
   this to their parent's start are left to the grandparent *)
let tol = 500L

type agg = { mutable self_ns : float; mutable total_ns : float; mutable n : int }

(** Self and total time per span name, summed over domains. *)
let aggregate (spans : span list) : (string, agg) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { self_ns = 0.0; total_ns = 0.0; n = 0 } in
        Hashtbl.add tbl name a;
        a
  in
  (* per domain: the closed spans not yet adopted by a parent *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks s.dom) in
      let rec adopt child_ns = function
        | c :: rest when Int64.compare c.t1 (Int64.add s.t0 tol) > 0 ->
            let lo = Int64.max c.t0 s.t0 and hi = Int64.min c.t1 s.t1 in
            adopt (child_ns +. Float.max 0.0 (Int64.to_float (Int64.sub hi lo))) rest
        | rest -> (child_ns, rest)
      in
      let child_ns, rest = adopt 0.0 stack in
      Hashtbl.replace stacks s.dom (s :: rest);
      let a = get s.name in
      a.total_ns <- a.total_ns +. dur s;
      a.self_ns <- a.self_ns +. Float.max 0.0 (dur s -. child_ns);
      a.n <- a.n + 1)
    spans;
  tbl

let self_ns tbl names =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt tbl n with Some a -> acc +. a.self_ns | None -> acc)
    0.0 names

let total_ns tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.total_ns | None -> 0.0

let count tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.n | None -> 0

(** Every span name seen, for the uncovered-remainder check. *)
let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

(** Minor-heap megabytes allocated and major collections during [f]. *)
let gc_delta (f : unit -> 'a) : 'a * float * int =
  let a = Gc.quick_stat () in
  let y = f () in
  let b = Gc.quick_stat () in
  ( y,
    (b.Gc.minor_words -. a.Gc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6,
    b.Gc.major_collections - a.Gc.major_collections )
