(** The benchmark's only clock: CLOCK_MONOTONIC in integer nanoseconds. *)

let now_ns () : int64 = Monotonic_clock.now ()

let ns_since (t0 : int64) : float = Int64.to_float (Int64.sub (now_ns ()) t0)
let s_since (t0 : int64) : float = ns_since t0 /. 1e9
