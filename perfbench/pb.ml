(** The benchmark's program. run.py starts it in one of three roles:

    - [gen]: the closed-loop generator of a serve workload. Its stdin
      reads the daemon's responses and its stdout writes the daemon's
      requests; it talks to run.py over stderr.
    - [figure8]: one cold Figure 8 run.
    - [daemon] and [replay]: the traced run's stand-in for
      [flexvec_cli serve] (same [Server.serve_fd], same configuration)
      and its layer-by-layer replay of the same requests (see
      {!Traced}).

    Every role prints one JSON object as its last line on the control
    channel. *)

let usage () =
  prerr_endline
    "usage: pb.exe (gen|figure8|daemon|replay) [--key value ...] [-- daemon argv]";
  exit 2

(** [--key value] pairs, and everything after [--]. *)
let parse_args (argv : string list) : (string * string) list * string list =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | "--" :: rest -> (List.rev acc, rest)
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] argv

let get kv k =
  match List.assoc_opt k kv with
  | Some v -> v
  | None ->
      prerr_endline ("missing --" ^ k);
      exit 2

let get_int kv k = int_of_string (get kv k)
let get_float kv k = float_of_string (get kv k)

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: rest ->
      let kv, daemon = parse_args rest in
      Gen_main.main
        ~workload:(Workload.kind_of_name (get kv "workload"))
        ~seed:(get_int kv "seed") ~seconds:(get_float kv "seconds")
        ~slice_s:(get_float kv "slice")
        ~window:(get_int kv "window") ~warm:(get_int kv "warm")
        ~length:(get_int kv "length") ~setup_reps:(get_int kv "setup-reps")
        ~daemon
  | _ :: "figure8" :: rest ->
      let kv, _ = parse_args rest in
      Fig8.main ~trace:(get_int kv "trace" = 1)
  | _ :: "daemon" :: rest ->
      let kv, _ = parse_args rest in
      Traced.daemon ~domains:(get_int kv "domains")
  | _ :: "replay" :: rest ->
      let kv, _ = parse_args rest in
      Traced.replay
        ~workload:(Workload.kind_of_name (get kv "workload"))
        ~seed:(get_int kv "seed") ~count:(get_int kv "count")
  | _ -> usage ()
