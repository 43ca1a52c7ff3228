(** The traced figure8 run: [Figure8.run] under a benchmark span with
    the program's phases recorded, broken into layers per kernel row. *)

module F8 = Fv_core.Figure8
module E = Fv_core.Experiment
module R = Fv_workloads.Registry
module L = Layers

let vir_insts ~seed (res : F8.result) : float =
  let plans =
    List.filter_map
      (fun (row : F8.row) ->
        if row.F8.decision.Fv_vectorizer.Costmodel.vectorize then
          let b = row.F8.spec.R.build seed in
          match Fv_vectorizer.Gen.vectorize ~vl:16 b.Fv_workloads.Kernels.loop with
          | Ok v -> Some (Traced.vir_insts v)
          | Error _ -> None
        else None)
      res.F8.rows
  in
  Traced.frac (float_of_int (List.fold_left ( + ) 0 plans)) (float_of_int (List.length plans))

let run ~seed (f : unit -> F8.result * float) : (F8.result * float) * (string * Json.t) list =
  L.install ();
  let (res, wall), minor_mb, majors = L.gc_delta (fun () -> L.with_ "Figure8.run" f) in
  L.uninstall ();
  let tbl = L.aggregate (L.drain ()) in
  let n = List.length R.all in
  let self names = L.self_ns tbl names in
  let us names = Traced.us (self names) n in
  (* the row's own time is the profile and the cost-model decision:
     [run_row]'s work outside [run_workload]'s phases *)
  let named =
    [
      ("profile", [ "pool:row" ]);
      ("workloads", [ "harness:build" ]);
      ("exec", [ "harness:trace" ]);
      ("classify", [ "compile:validate"; "compile:classify" ]);
      ("vectorize", [ "compile:vectorize" ]);
      ("simcache", [ "harness:simulate" ]);
      ("compiled", [ "sim:compile" ]);
      ("pipeline", [ "sim:replay" ]);
    ]
  in
  let known = List.concat_map snd named @ [ "Figure8.run" ] in
  let unknown = List.filter (fun s -> not (List.mem s known)) (L.names tbl) in
  if unknown <> [] then failwith ("unattributed spans: " ^ String.concat ", " unknown);
  let traced_wall = L.total_ns tbl "Figure8.run" in
  let covered = List.fold_left (fun a (_, ns) -> a +. self ns) 0.0 named in
  let runs =
    List.concat_map
      (fun (row : F8.row) ->
        if row.F8.decision.Fv_vectorizer.Costmodel.vectorize then [ row.F8.baseline; row.F8.flexvec ]
        else [ row.F8.baseline ])
      res.F8.rows
  in
  let hot = List.map (fun (row : F8.row) -> row.F8.flexvec) res.F8.rows in
  let psum f rs = float_of_int (Traced.sum (fun h -> f h.E.pipe) rs) in
  let cycles = psum (fun p -> p.Fv_ooo.Pipeline.cycles) hot in
  let loads = psum (fun p -> p.Fv_ooo.Pipeline.loads) hot in
  let l1 =
    List.fold_left
      (fun a h -> a +. (h.E.pipe.Fv_ooo.Pipeline.l1_hit_rate *. float_of_int h.E.pipe.Fv_ooo.Pipeline.loads))
      0.0 hot
  in
  let uops = float_of_int (Traced.sum (fun h -> h.E.uops) runs) in
  let hit = Traced.simcache_hit_frac tbl in
  let open Json in
  ( (res, wall),
    [
      ("traced_wall_ns", F traced_wall);
      ("covered_ns", F covered);
      ("other_ns", F (Float.max 0.0 (traced_wall -. covered)));
      ("gc_minor_mb", F minor_mb);
      ("gc_major_collections", I majors);
      ("experiment.run_hot_us", F (Traced.us (L.total_ns tbl "pool:row") n));
      ("profile.us", F (us [ "pool:row" ]));
      ("workloads.build_us", F (us [ "harness:build" ]));
      ("exec.us", F (us [ "harness:trace" ]));
      ("exec.uops", F (uops /. float_of_int n));
      ("classify.us", F (us [ "compile:validate"; "compile:classify" ]));
      ("vectorize.us", F (us [ "compile:vectorize" ]));
      ("vectorize.vir_insts", F (vir_insts ~seed res));
      ("simcache.us", F (us [ "harness:simulate" ]));
      ("simcache.hit_frac", F hit);
      ("compiled.us", F (us [ "sim:compile" ]));
      ("pipeline.us", F (us [ "sim:replay" ]));
      ("pipeline.muops_per_s",
        F (Traced.frac (uops *. (1.0 -. hit)) (L.total_ns tbl "sim:replay" /. 1e3)));
      ("pipeline.stall_redirect_frac", F (Traced.frac (psum (fun p -> p.Fv_ooo.Pipeline.stall_redirect) hot) cycles));
      ("pipeline.stall_rob_frac", F (Traced.frac (psum (fun p -> p.Fv_ooo.Pipeline.stall_rob) hot) cycles));
      ("pipeline.l1_hit_rate", F (Traced.frac l1 loads));
    ] )
