(* Clock, allocation counters, knowledge digest and JSON output shared
   by the untraced and traced runs. *)

module Codec = Softborg_util.Codec
module Knowledge = Softborg_hive.Knowledge

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated so far: minor plus those allocated directly on the
   major heap (promotions are already counted as minor words).  The
   runtime adds direct-major words to its counters at the next major
   slice, so only differences over many calls are accurate. *)
let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* Hex MD5 over every program's knowledge bytes, in program-digest
   order: equal exactly when the hives ended with byte-identical
   knowledge. *)
let knowledge_digest knowledge =
  knowledge
  |> List.map (fun k ->
         let w = Codec.Writer.create () in
         Knowledge.write w k;
         (Knowledge.digest k, Codec.Writer.contents w))
  |> List.sort compare
  |> List.concat_map (fun (d, bytes) -> [ d; bytes ])
  |> String.concat "\000"
  |> Digest.string |> Digest.to_hex

(* Only ASCII names, hex digests and numbers are printed, for which
   OCaml's [%S] escaping is also JSON's. *)
type json =
  | Int of int
  | Float of float
  | String of string
  | Obj of (string * json) list

let rec pp_json buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | String s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Printf.bprintf buf "%S: " k;
        pp_json buf v)
      fields;
    Buffer.add_char buf '}'

let print_json fields =
  let buf = Buffer.create 1024 in
  pp_json buf (Obj fields);
  print_endline (Buffer.contents buf)
