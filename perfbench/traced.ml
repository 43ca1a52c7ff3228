(** The traced run's two programs.

    [daemon] stands in for [flexvec_cli serve] in the traced session:
    the same [Server.serve_fd] with the same configuration, with the
    program's phases recorded. It sees the server and pool layers, which
    only exist inside the daemon.

    [replay] feeds the same request sequence through the layers'
    public functions in one process, twice: once through
    [Service.handle] (the handle time the daemon cannot expose at
    [--domains 1]) and once step by step — parse, key, plan-cache find,
    vectorize, run_hot, render — with a span around each step. The
    step-by-step answers must equal [Service.handle]'s byte for byte,
    which keeps the decomposition honest. *)

module Sexp = Fv_fuzz.Sexp
module Corpus = Fv_fuzz.Corpus
module P = Fv_serve.Protocol
module S = Fv_serve.Service
module PC = Fv_serve.Plancache
module E = Fv_core.Experiment
module L = Layers

let us ns n = if n > 0 then ns /. 1e3 /. float_of_int n else 0.0
let frac a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* The traced daemon                                                   *)
(* ------------------------------------------------------------------ *)

(** Pool batches seen through the row spans: rows of one batch overlap
    or abut, and the next batch starts after the last row of the
    previous one has been joined. Returns (batches, summed batch wall,
    summed row time) in ns. *)
let pool_batches (spans : L.span list) : int * float * float =
  let rows =
    List.sort
      (fun a b -> Int64.compare a.L.t0 b.L.t0)
      (List.filter (fun s -> s.L.name = "pool:row") spans)
  in
  let batches = ref 0 and wall = ref 0.0 and busy = ref 0.0 in
  let lo = ref 0L and hi = ref Int64.min_int in
  let close () = if !hi > Int64.min_int then wall := !wall +. Int64.to_float (Int64.sub !hi !lo) in
  List.iter
    (fun s ->
      busy := !busy +. L.dur s;
      if Int64.compare s.L.t0 !hi > 0 then begin
        close ();
        incr batches;
        lo := s.L.t0;
        hi := s.L.t1
      end
      else hi := Int64.max !hi s.L.t1)
    rows;
  close ();
  (!batches, !wall, !busy)

let daemon ~(domains : int) =
  let cache = PC.create () in
  let scfg = S.cfg ~cache () in
  let opts = { Fv_serve.Server.default_opts with Fv_serve.Server.domains = Some domains } in
  L.install ();
  let (), minor_mb, majors =
    L.gc_delta (fun () ->
        L.with_ "Server.serve_fd" (fun () -> Fv_serve.Server.serve_stdin scfg opts))
  in
  L.uninstall ();
  let spans = L.drain () in
  let tbl = L.aggregate spans in
  let batches, batch_wall, row_busy = pool_batches spans in
  let open Json in
  prerr_endline
    (to_string
       (O
          [
            ("serve_fd_ns", F (L.total_ns tbl "Server.serve_fd"));
            ("pool_batches", I batches);
            ("pool_batch_wall_ns", F batch_wall);
            ("pool_row_ns", F row_busy);
            ("gc_minor_mb", F minor_mb);
            ("gc_major_collections", I majors);
          ]))

(* ------------------------------------------------------------------ *)
(* The layer replay                                                    *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable finds : int;
  mutable hits : int;
  mutable memo_hits : int;
  mutable misses : P.payload list;  (** loops compiled, for the verdicts *)
  mutable plans : int;
  mutable vir_insts : int;
  mutable runs : E.hot_run list;
  mutable simulated : (Fv_ir.Ast.loop * int) list;
      (** simulated loops and their vl, for the code size *)
  mutable uops_replayed : int;
}

let vir_insts (v : Fv_vir.Inst.vloop) =
  let n = ref 0 in
  Fv_vir.Inst.iter_insts (fun _ -> incr n) v;
  !n

(** One request, step by step, mirroring [Service.handle] on the
    nominal path (no deadline, no admission control, no brownout). *)
let handle_steps (t : tally) ~(memo : PC.t) ~(cache : PC.t) (line : string) : string =
  match L.with_ "Plancache.find" (fun () -> PC.find memo ~canonical:line) with
  | Some p ->
      t.memo_hits <- t.memo_hits + 1;
      p.PC.p_tail
  | None ->
      let r = L.with_ "Protocol.parse" (fun () -> P.request_of_sexp (Sexp.of_string line)) in
      let status, tail, hit_tail, op =
        match (r.P.op, r.P.payload) with
        | P.Compile, payload -> (
            let vl =
              match r.P.vl with
              | Some v -> v
              | None -> Option.value ~default:16 (P.vl_of_payload payload)
            in
            let loop_sexp = P.loop_sexp_of_payload payload in
            let canonical =
              L.with_ "Protocol.key" (fun () ->
                  P.compile_key_of_sexp ~vl ~strategy:r.P.strategy loop_sexp)
            in
            t.finds <- t.finds + 1;
            match L.with_ "Plancache.find" (fun () -> PC.find cache ~canonical) with
            | Some p ->
                t.hits <- t.hits + 1;
                let st = if p.PC.p_ok then P.Ok_ else P.Rejected in
                (st, p.PC.p_tail, p.PC.p_tail, "compile")
            | None ->
                assert (r.P.strategy = E.Flexvec);
                t.misses <- payload :: t.misses;
                let loop = L.with_ "Protocol.parse" (fun () -> Corpus.loop_of_sexp loop_sexp) in
                let st, body, ok =
                  match
                    L.with_ "Gen.vectorize" (fun () ->
                        Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec loop)
                  with
                  | Ok v ->
                      t.plans <- t.plans + 1;
                      t.vir_insts <- t.vir_insts + vir_insts v;
                      let plan, mix = L.with_ "Protocol.render" (fun () -> S.render_vloop v) in
                      (P.Ok_, (fun cached -> P.compile_ok_body ~cached ~plan ~mix), true)
                  | Error d ->
                      (P.Rejected, (fun cached -> P.compile_rejected_body ~cached d), false)
                in
                let tail, hit_tail =
                  L.with_ "Protocol.render" (fun () ->
                      (P.render_tail ~status:st (body false), P.render_tail ~status:st (body true)))
                in
                L.with_ "Plancache.put" (fun () ->
                    PC.put cache ~canonical { PC.p_tail = hit_tail; p_ok = ok; p_op = "compile" });
                (st, tail, hit_tail, "compile"))
        | P.Simulate, P.Case_s s ->
            let cs = L.with_ "Protocol.parse" (fun () -> Corpus.case_of_sexp s) in
            let vl = Option.value ~default:cs.Fv_fuzz.Gen.vl r.P.vl in
            t.simulated <- (cs.Fv_fuzz.Gen.loop, vl) :: t.simulated;
            let run strategy =
              let before = L.seen "sim:replay" in
              let h =
                L.with_ "Experiment.run_hot" (fun () ->
                    E.run_hot ~vl strategy cs.Fv_fuzz.Gen.loop (Fv_fuzz.Gen.memory_of cs)
                      cs.Fv_fuzz.Gen.env)
              in
              if L.seen "sim:replay" > before then
                t.uops_replayed <- t.uops_replayed + h.E.uops;
              t.runs <- h :: t.runs;
              h
            in
            let scalar = run E.Scalar in
            let hot = match r.P.strategy with E.Scalar -> scalar | st -> run st in
            let tail =
              L.with_ "Protocol.render" (fun () ->
                  P.render_tail ~status:P.Ok_ (P.simulate_ok_body ~scalar ~run:hot))
            in
            (P.Ok_, tail, tail, "simulate")
        | P.Simulate, P.Loop_s _ -> failwith "simulate request without a case"
      in
      if status = P.Ok_ || status = P.Rejected then begin
        let stored = L.with_ "Protocol.render" (fun () -> P.response_of_tail ?id:r.P.id hit_tail) in
        L.with_ "Plancache.put" (fun () ->
            PC.put memo ~canonical:line { PC.p_tail = stored; p_ok = status = P.Ok_; p_op = op })
      end;
      L.with_ "Protocol.render" (fun () -> P.response_of_tail ?id:r.P.id tail)

let fresh_caches () =
  let cache = PC.create () in
  (cache, PC.create ~cap:(PC.capacity cache) ~metrics_prefix:"response_cache" ())

(** Share of simulations answered from [Simcache] without a replay. *)
let simcache_hit_frac tbl =
  match L.count tbl "harness:simulate" with
  | 0 -> 0.0
  | calls -> 1.0 -. frac (float_of_int (L.count tbl "sim:replay")) (float_of_int calls)

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(** Replay the daemon's request sequence: the warm-up line, then
    positions [0, count). *)
let replay ~(workload : Workload.kind) ~(seed : int) ~(count : int) =
  let w = Workload.make workload ~seed ~length:(max 1 count) in
  let lines = w.Workload.warmup_line :: List.init count w.Workload.line in
  let n = List.length lines in
  let t =
    { finds = 0; hits = 0; memo_hits = 0; misses = []; plans = 0; vir_insts = 0;
      runs = []; simulated = []; uops_replayed = 0 }
  in
  (* step by step *)
  Fv_ooo.Simcache.clear ();
  let cache, memo = fresh_caches () in
  L.install ();
  let steps =
    L.with_ "replay" (fun () -> List.map (handle_steps t ~memo ~cache) lines)
  in
  L.uninstall ();
  let tbl = L.aggregate (L.drain ()) in
  (* whole requests through Service.handle *)
  Fv_ooo.Simcache.clear ();
  let cache, lines_memo = fresh_caches () in
  let scfg = S.cfg ~cache ~lines:lines_memo () in
  let whole = List.map (fun l -> L.with_ "Service.handle" (fun () -> S.handle scfg l)) lines in
  let handle_tbl = L.aggregate (L.drain ()) in
  let mismatches =
    List.fold_left2 (fun acc a b -> if String.equal a b then acc else acc + 1) 0 steps whole
  in
  (* classification verdicts of the compiled loops, off the clock *)
  let rejected =
    List.length
      (List.filter
         (fun p ->
           match Fv_pdg.Classify.analyze (Corpus.loop_of_sexp (P.loop_sexp_of_payload p)) with
           | Fv_pdg.Classify.Rejected _ -> true
           | Fv_pdg.Classify.Vectorizable _ -> false)
         t.misses)
  in
  (* code size of what the simulate path vectorized, off the clock *)
  List.iter
    (fun (l, vl) ->
      match Fv_vectorizer.Gen.vectorize ~vl ~style:Fv_vectorizer.Gen.Flexvec l with
      | Ok v ->
          t.plans <- t.plans + 1;
          t.vir_insts <- t.vir_insts + vir_insts v
      | Error _ -> ())
    t.simulated;
  let self names = L.self_ns tbl names in
  let named =
    [
      ("protocol", [ "Protocol.parse"; "Protocol.key"; "Protocol.render" ]);
      ("plancache", [ "Plancache.find"; "Plancache.put" ]);
      ("classify", [ "compile:validate"; "compile:classify" ]);
      ("vectorize", [ "Gen.vectorize"; "compile:vectorize" ]);
      ("exec", [ "Experiment.run_hot" ]);
      ("simcache", [ "harness:simulate" ]);
      ("compiled", [ "sim:compile" ]);
      ("pipeline", [ "sim:replay" ]);
      ("profile", [ "auto:profile" ]);
    ]
  in
  let known = List.concat_map snd named @ [ "replay" ] in
  let unknown = List.filter (fun s -> not (List.mem s known)) (L.names tbl) in
  if unknown <> [] then failwith ("unattributed spans: " ^ String.concat ", " unknown);
  let wall = L.total_ns tbl "replay" in
  let covered = List.fold_left (fun a (_, ns) -> a +. self ns) 0.0 named in
  let hot = List.filter (fun h -> h.E.strategy <> E.Scalar) t.runs in
  let psum f = float_of_int (sum (fun h -> f h.E.pipe) hot) in
  let cycles = psum (fun p -> p.Fv_ooo.Pipeline.cycles) in
  let loads = psum (fun p -> p.Fv_ooo.Pipeline.loads) in
  let l1 =
    List.fold_left
      (fun a h -> a +. (h.E.pipe.Fv_ooo.Pipeline.l1_hit_rate *. float_of_int h.E.pipe.Fv_ooo.Pipeline.loads))
      0.0 hot
  in
  let open Json in
  print_endline
    (to_string
       (O
          [
            ("requests", I n);
            ("replay_mismatches", I mismatches);
            ("replay_ns", F wall);
            ("handle_ns", F (L.total_ns handle_tbl "Service.handle"));
            ("covered_ns", F covered);
            ("other_ns", F (Float.max 0.0 (wall -. covered)));
            ("protocol.parse_us", F (us (self [ "Protocol.parse" ]) n));
            ("protocol.key_us", F (us (self [ "Protocol.key" ]) n));
            ("protocol.render_us", F (us (self [ "Protocol.render" ]) n));
            ("plancache.hit_frac", F (frac (float_of_int t.hits) (float_of_int t.finds)));
            ("plancache.evictions", I (PC.evictions cache));
            ("plancache.find_us", F (us (self [ "Plancache.find" ]) (L.count tbl "Plancache.find")));
            ("response_memo.hit_frac", F (frac (float_of_int t.memo_hits) (float_of_int n)));
            ("classify.us", F (us (self [ "compile:validate"; "compile:classify" ]) n));
            ("classify.rejected_frac",
              F (frac (float_of_int rejected) (float_of_int (List.length t.misses))));
            ("vectorize.us", F (us (self [ "Gen.vectorize"; "compile:vectorize" ]) n));
            ("vectorize.vir_insts", F (frac (float_of_int t.vir_insts) (float_of_int t.plans)));
            ("experiment.run_hot_us", F (us (L.total_ns tbl "Experiment.run_hot") n));
            ("profile.us", F (us (self [ "auto:profile" ]) n));
            ("exec.us", F (us (self [ "Experiment.run_hot" ]) n));
            ("exec.uops", F (frac (float_of_int (sum (fun h -> h.E.uops) t.runs)) (float_of_int n)));
            ("compiled.us", F (us (self [ "sim:compile" ]) n));
            ("pipeline.us", F (us (self [ "sim:replay" ]) n));
            ("pipeline.muops_per_s",
              F (frac (float_of_int t.uops_replayed) (L.total_ns tbl "sim:replay" /. 1e3)));
            ("simcache.us", F (us (self [ "harness:simulate" ]) n));
            ("simcache.hit_frac", F (simcache_hit_frac tbl));
            ("pipeline.stall_redirect_frac", F (frac (psum (fun p -> p.Fv_ooo.Pipeline.stall_redirect)) cycles));
            ("pipeline.stall_rob_frac", F (frac (psum (fun p -> p.Fv_ooo.Pipeline.stall_rob)) cycles));
            ("pipeline.l1_hit_rate", F (frac l1 loads));
          ]))
