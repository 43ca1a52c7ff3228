(** The figure8 role: one cold [Figure8.run ~domains:1] over the 18
    registry kernels. [Simcache] is process-global, so every run is a
    fresh process; run.py repeats it. *)

module F8 = Fv_core.Figure8
module E = Fv_core.Experiment
module R = Fv_workloads.Registry

let seed = 42 (* the paper reproduction's kernel data: fixed, not --seed *)
let setup_reps = 5

(** Set-up: build every registry kernel once, seconds. *)
let build_all () : float =
  let t0 = Clock.now_ns () in
  List.iter (fun (s : R.spec) -> ignore (Sys.opaque_identity (s.R.build seed))) R.all;
  Clock.s_since t0

let degraded (r : E.hot_run) =
  match r.E.compile with
  | E.Degraded_traditional _ | E.Degraded_scalar _ -> true
  | E.Not_compiled | E.Vectorized -> false

(** Rows that fail the scalar-interpreter oracle or degrade. *)
let bad_rows (res : F8.result) : int =
  List.length res.F8.errors
  + List.length
      (List.filter
         (fun (row : F8.row) ->
           row.F8.baseline.E.oracle_error <> None
           || row.F8.flexvec.E.oracle_error <> None
           || degraded row.F8.baseline || degraded row.F8.flexvec)
         res.F8.rows)

let run () : F8.result * float =
  let t0 = Clock.now_ns () in
  let res = F8.run ~seed ~domains:1 () in
  (res, Clock.s_since t0)

let main ~trace =
  let setups = List.init setup_reps (fun _ -> build_all ()) in
  let res, wall, layers =
    if trace then
      let (res, wall), layers = Fig8_trace.run ~seed run in
      (res, wall, layers)
    else
      let res, wall = run () in
      (res, wall, [])
  in
  let open Json in
  print_endline
    (to_string
       (O
          ([
             ("setup_s", L (List.map (fun s -> F s) setups));
             ("wall_s", F wall);
             ("rows", I (List.length R.all));
             ("bad_rows", I (bad_rows res));
             ("spec_geomean", F res.F8.spec_geomean);
             ("app_geomean", F res.F8.app_geomean);
           ]
          @ layers)))
