(** Request streams for the two serve workloads, made from the seed
    alone, with the expected answer for every request computed by the
    in-process front end.

    A stream is a function from position to wire line. The loop text
    of every request is rendered during set-up; sending a request costs
    one string concatenation (the id), never a sexp rendering. *)

module Sexp = Fv_fuzz.Sexp
module Gen = Fv_fuzz.Gen
module P = Fv_serve.Protocol
module E = Fv_core.Experiment
module Hash = Fv_obs.Hash

type kind = Compile | Simulate

let kind_of_name = function
  | "serve-compile" -> Compile
  | "serve-simulate" -> Simulate
  | w -> failwith ("unknown serve workload " ^ w)

(* serve-compile shape *)
let hot_keys = 4096
let zipf_s = 0.9
let scan_p = 0.2
let idless_p = 0.25

(* the request prefix every Loadgen line starts with *)
let request_prefix = "(request "

let suffix_of line =
  let n = String.length request_prefix in
  assert (String.sub line 0 n = request_prefix);
  String.sub line n (String.length line - n)

let id_of_pos (kind : kind) (i : int) : string =
  (match kind with Compile -> "c" | Simulate -> "s") ^ string_of_int i

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

(** A response with its envelope removed: the tail after the optional
    [(id ...)], with a compile's [(cached true)] folded to
    [(cached false)] so a hit and a miss compare equal. String surgery
    only; the payload is not parsed. *)
let normalize (resp : string) : string option =
  let n = String.length resp in
  let pre = "(response " in
  let lp = String.length pre in
  if n < lp + 1 || String.sub resp 0 lp <> pre || resp.[n - 1] <> ')' then None
  else
    let start =
      if n > lp + 4 && String.sub resp lp 4 = "(id " then
        match String.index_from_opt resp lp ')' with
        | Some j -> j + 2
        | None -> n
      else lp
    in
    if start >= n then None
    else
      let tail = String.sub resp start (n - 1 - start) in
      let hit = "(status ok) (cached true)" in
      let lh = String.length hit in
      if String.length tail >= lh && String.sub tail 0 lh = hit then
        Some
          ("(status ok) (cached false)"
          ^ String.sub tail lh (String.length tail - lh))
      else Some tail

(** The one-shot front end's answer to a compile of [c]'s loop. *)
let expected_compile (c : Gen.case) : string option =
  match Fv_serve.Service.compile_plan ~vl:c.Gen.vl ~strategy:E.Flexvec c.Gen.loop with
  | Ok (plan, mix) ->
      Some (P.render_tail ~status:P.Ok_ (P.compile_ok_body ~cached:false ~plan ~mix))
  | Error _ -> None

(** The in-process answer to a simulate of [c]: scalar baseline and the
    default (FlexVec) strategy through [Experiment.run_hot]. *)
let expected_simulate (c : Gen.case) : string =
  let run s = E.run_hot ~vl:c.Gen.vl s c.Gen.loop (Gen.memory_of c) c.Gen.env in
  let scalar = run E.Scalar in
  let hot = run E.Flexvec in
  P.render_tail ~status:P.Ok_ (P.simulate_ok_body ~scalar ~run:hot)

(* ------------------------------------------------------------------ *)
(* Case selection                                                      *)
(* ------------------------------------------------------------------ *)

(** [f] over [xs] on two domains: set-up and checking run while the
    daemon is not, so both cores are free. *)
let par_map (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let half = Array.length xs / 2 in
  let other = Domain.spawn (fun () -> Array.map f (Array.sub xs 0 half)) in
  let mine = Array.map f (Array.sub xs half (Array.length xs - half)) in
  Array.append (Domain.join other) mine

(** [n] well-formed cases with pairwise-distinct compile keys whose
    compile succeeds, from a seed-derived base, each with its expected
    normalized answer hashed. Cases the front end rejects are skipped:
    the workload is chosen so that no operation fails. *)
let compile_cases ~(seed : int) ~(n : int) : Gen.case array * int64 array =
  let base = 7919 * (seed + 1) * 104_729 in
  let seen = Hashtbl.create (2 * n) in
  let attempt = ref 0 in
  (* the next [m] candidates with keys not seen before *)
  let candidates m =
    let out = ref [] and k = ref 0 in
    while !k < m do
      if !attempt > 100 * (n + 100) then failwith "compile_cases: generator exhausted";
      let c = Gen.case_of_seed ~p_malformed:0.0 (base + !attempt) in
      incr attempt;
      let key = P.compile_key ~vl:c.Gen.vl ~strategy:E.Flexvec c.Gen.loop in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := c :: !out;
        incr k
      end
    done;
    Array.of_list (List.rev !out)
  in
  let acc = ref [] and found = ref 0 in
  while !found < n do
    let cs = candidates (n - !found + 16) in
    let tails = par_map expected_compile cs in
    Array.iteri
      (fun i t ->
        match t with
        | Some tail when !found < n ->
            acc := (cs.(i), Hash.fnv1a64 tail) :: !acc;
            incr found
        | _ -> ())
      tails
  done;
  let kept = Array.of_list (List.rev !acc) in
  (Array.map fst kept, Array.map snd kept)

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  kind : kind;
  length : int;  (** requests available *)
  line : int -> string;  (** the wire line at a position *)
  has_id : int -> bool;
  warmup_line : string;  (** the untimed request that ends set-up *)
  check : int -> string -> bool;
      (** is the normalized answer at a position right? (compile:
          against the precomputed hash; simulate: recorded for
          {!verify}, always true here) *)
  verify : int -> int;
      (** mismatches among the first [n] positions (the answered ones),
          checked after the timed loop *)
}

(** Zipf sampler over ranks [0, n): the CDF once, then a binary search
    per draw. *)
let zipf ~(n : int) ~(s : float) : Random.State.t -> int =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun st ->
    let u = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(** serve-compile: [length] positions, each a Zipf(0.9) draw over
    [hot_keys] loops or, one time in five, a loop never sent before. *)
let compile_stream ~(seed : int) ~(length : int) : t =
  let st = Random.State.make [| seed; 0xc0de |] in
  let draw = zipf ~n:hot_keys ~s:zipf_s in
  (* position -> hot rank (>= 0) or scan ordinal (-1 - j) *)
  let pos = Array.make length 0 in
  let idless = Bytes.make length '\000' in
  let scans = ref 0 in
  for i = 0 to length - 1 do
    if Random.State.float st 1.0 < scan_p then begin
      pos.(i) <- -1 - !scans;
      incr scans
    end
    else begin
      pos.(i) <- draw st;
      if Random.State.float st 1.0 < idless_p then Bytes.set idless i '\001'
    end
  done;
  let cases, hashes = compile_cases ~seed ~n:(hot_keys + !scans) in
  let index i = if pos.(i) >= 0 then pos.(i) else hot_keys - 1 - pos.(i) in
  let bare = Array.map (fun c -> Fv_serve.Loadgen.loop_request_line c) cases in
  let suffix = Array.map suffix_of bare in
  let has_id i = Bytes.get idless i = '\000' in
  let line i =
    let k = index i in
    if has_id i then
      String.concat ""
        [ request_prefix; "(id "; id_of_pos Compile i; ") "; suffix.(k) ]
    else bare.(k)
  in
  (* the splice must be exactly Loadgen's own rendering *)
  (match List.find_opt has_id (List.init (min length 64) Fun.id) with
  | Some i ->
      assert (
        line i
        = Fv_serve.Loadgen.loop_request_line ~id:(id_of_pos Compile i)
            cases.(index i))
  | None -> ());
  let check i resp =
    match normalize resp with
    | Some tail -> Int64.equal (Hash.fnv1a64 tail) hashes.(index i)
    | None -> false
  in
  {
    kind = Compile;
    length;
    line;
    has_id;
    warmup_line = bare.(0);
    check;
    verify = (fun _ -> 0);
  }

(** serve-simulate: [length] distinct fuzz cases as simulate requests
    with unique ids. Answers are kept and checked against
    [Experiment.run_hot] after the timed loop. *)
let simulate_stream ~(seed : int) ~(length : int) : t =
  let cases =
    Array.of_list
      (Fv_serve.Loadgen.distinct_cases ~n:(length + 1)
         ~seed:(7919 * (seed + 1) * 104_729))
  in
  let lines =
    Array.init length (fun i ->
        Fv_serve.Loadgen.simulate_request_line ~id:(id_of_pos Simulate i)
          cases.(i + 1))
  in
  let answers = Array.make length None in
  let check i resp =
    answers.(i) <- normalize resp;
    true
  in
  let verify answered =
    let right i =
      match answers.(i) with
      | Some tail -> tail = expected_simulate cases.(i + 1)
      | None -> false
    in
    Array.fold_left
      (fun bad ok -> if ok then bad else bad + 1)
      0
      (par_map right (Array.init answered Fun.id))
  in
  {
    kind = Simulate;
    length;
    line = (fun i -> lines.(i));
    has_id = (fun _ -> true);
    warmup_line = Fv_serve.Loadgen.simulate_request_line cases.(0);
    check;
    verify;
  }

let make (kind : kind) ~seed ~length =
  match kind with
  | Compile -> compile_stream ~seed ~length
  | Simulate -> simulate_stream ~seed ~length
