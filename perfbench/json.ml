(** Just enough JSON to print one flat result object. *)

type t = F of float | I of int | S of string | L of t list | O of (string * t) list

let rec to_string = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | L xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | O kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_string v)) kvs)
      ^ "}"
