(** One process-wide, supervised OCaml 5 domain pool for the
    embarrassingly-parallel shape of the evaluation harness and the
    serve daemon: every Figure 8 / Table 2 row, every sweep point and
    every request of a batch is an independent computation (its own
    kernel build, its own [Memory.clone], its own trace sink), so
    elements can be fanned out across domains with no shared mutable
    state. An atomic cursor hands out one input index at a time, so a
    slow row (433.milc's 8000-trip loops) does not serialise the fast
    rows behind it, and each result lands in its input's slot, so the
    output keeps the input order. *)

(** Number of domains a call uses when [?domains] is not given: all but
    one of the recommended domain count, and never fewer than one. *)
val default_domains : unit -> int

(** Why an element produced no value. *)
type failure =
  | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
  | Timed_out of { wall_seconds : float; limit : float }
      (** the element ran longer than the caller's wall-clock budget: it
          was detached at the deadline, canceled itself at a
          {!Budget} poll, or finished late; any value it produced is
          discarded *)

val failure_message : failure -> string

(** Raised by a task (or injected by the chaos harness) to simulate a
    worker domain dying mid-element; see {!map}. *)
exception Kill_worker of string

(** Supervisor-visible event, surfaced through [?on_event] so callers
    (the serve layer) can count restarts and quarantine the offending
    input without threading state through the pool. *)
type event =
  | Detached of { index : int; wall_seconds : float; limit : float }
  | Died of { index : int; exn : exn }

(** [map ?domains ?timeout_s ?on_event f xs] applies [f] to every
    element and captures each outcome: [Ok y] on success,
    [Error (Raised _)] if that application raised (other elements still
    run to completion) and [Error (Timed_out _)] if it ran past
    [?timeout_s] seconds.

    A call with one element or one domain and no timeout runs on the
    calling domain, as does a call made from a pool worker; there
    {!Kill_worker} is an ordinary failure. A one-domain call first
    stops and joins the parked workers (unless another call is in
    flight), which would otherwise take part in each of its
    stop-the-world minor collections.

    Otherwise [domains] (default {!default_domains}, capped at the core
    count) elements run at once on workers that are spawned on the
    first such call and parked between calls. Without a timeout the
    caller is one of those lanes, beside [domains - 1] workers. With
    one it runs no element: it sleeps until the call completes or the
    earliest running element reaches its deadline, and {b detaches} a
    worker whose element has run past [?timeout_s] ([Detached]): the
    element is answered [Error (Timed_out _)] at once, and the worker —
    domains cannot be preempted, so it keeps its core until the stuck
    element returns — is replaced by a fresh domain. A lane that
    raises {!Kill_worker} ([Died]) answers its element
    [Error (Raised _)] and is replaced: a worker by a fresh domain, the
    caller's lane by the worker in the next slot. Replaced domains are
    joined, and their metrics shards retired, once they have exited.
    [?on_event] sees each event on the calling domain after the call. *)
val map :
  ?domains:int ->
  ?timeout_s:float ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, failure) result list

(** [map_exn ?domains f xs] is [List.map f xs] on the pool, for callers
    whose elements must all succeed: every element still runs, and then
    the failure of the {e earliest} failing input is raised (a [Raised]
    one with its original backtrace). *)
val map_exn : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
