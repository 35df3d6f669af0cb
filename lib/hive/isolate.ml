module Ir = Softborg_prog.Ir
module Sampling = Softborg_trace.Sampling
module Outcome = Softborg_exec.Outcome

module Pred_map = Map.Make (struct
  type t = Sampling.predicate

  let compare = Sampling.predicate_compare
end)

module Site_map = Map.Make (struct
  type t = Ir.site

  let compare = Ir.site_compare
end)

(* Per predicate: number of failing / passing runs in which it was
   observed at least once. *)
type counts = { mutable failing : int; mutable passing : int }

type t = {
  mutable predicates : counts Pred_map.t;
  mutable sites : counts Site_map.t;
  mutable runs : int;
  mutable failing_runs : int;
}

let create () =
  { predicates = Pred_map.empty; sites = Site_map.empty; runs = 0; failing_runs = 0 }

let counts_for t predicate =
  match Pred_map.find_opt predicate t.predicates with
  | Some c -> c
  | None ->
    let c = { failing = 0; passing = 0 } in
    t.predicates <- Pred_map.add predicate c t.predicates;
    c

let site_counts_for t site =
  match Site_map.find_opt site t.sites with
  | Some c -> c
  | None ->
    let c = { failing = 0; passing = 0 } in
    t.sites <- Site_map.add site c t.sites;
    c

(* [observed] must be sorted and deduplicated by
   [Sampling.predicate_compare]: each predicate then counts once per
   run, and a site's predicates are adjacent, so the site is tallied
   once, at the last of them. *)
let record_observations t ~failed observed =
  t.runs <- t.runs + 1;
  if failed then t.failing_runs <- t.failing_runs + 1;
  let tally c = if failed then c.failing <- c.failing + 1 else c.passing <- c.passing + 1 in
  let rec go = function
    | [] -> ()
    | (predicate : Sampling.predicate) :: rest ->
      tally (counts_for t predicate);
      (match rest with
      | next :: _ when Ir.site_equal next.Sampling.site predicate.Sampling.site -> ()
      | _ -> tally (site_counts_for t predicate.Sampling.site));
      go rest
  in
  go observed

(* Wire-decoded reports carry their rows as sent: a repeated row must
   not count one run twice. *)
let record t (sampled : Sampling.t) =
  let observed = List.sort_uniq Sampling.predicate_compare (List.map fst sampled.Sampling.counts) in
  record_observations t ~failed:(Outcome.is_failure sampled.Sampling.outcome) observed

let record_path t ~full_path ~outcome =
  let observed =
    List.sort_uniq Sampling.predicate_compare
      (List.map (fun (site, direction) -> { Sampling.site; direction }) full_path)
  in
  record_observations t ~failed:(Outcome.is_failure outcome) observed

let runs t = t.runs
let failing_runs t = t.failing_runs

type ranked = {
  predicate : Sampling.predicate;
  score : float;
  failure_ratio : float;
  context_ratio : float;
  failing_observations : int;
  passing_observations : int;
}

let ratio f s = if f + s = 0 then 0.0 else float_of_int f /. float_of_int (f + s)

let rank t =
  Pred_map.fold
    (fun predicate c acc ->
      let site_c = site_counts_for t predicate.Sampling.site in
      let failure_ratio = ratio c.failing c.passing in
      let context_ratio = ratio site_c.failing site_c.passing in
      {
        predicate;
        score = failure_ratio -. context_ratio;
        failure_ratio;
        context_ratio;
        failing_observations = c.failing;
        passing_observations = c.passing;
      }
      :: acc)
    t.predicates []
  |> List.sort (fun a b ->
         match Float.compare b.score a.score with
         | 0 -> Int.compare b.failing_observations a.failing_observations
         | c -> c)

let top_predicate t =
  match rank t with
  | best :: _ when best.score > 0.0 -> Some best
  | _ -> None

let localization_rank t ~target =
  let ranking = rank t in
  let rec find i = function
    | [] -> None
    | r :: rest ->
      if Sampling.predicate_equal r.predicate target then Some i else find (i + 1) rest
  in
  find 1 ranking

module Codec = Softborg_util.Codec

let write_site w (site : Ir.site) =
  Codec.Writer.varint w site.Ir.thread;
  Codec.Writer.varint w site.Ir.pc

let read_site r =
  let thread = Codec.Reader.varint r in
  let pc = Codec.Reader.varint r in
  { Ir.thread; pc }

let write_counts w (c : counts) =
  Codec.Writer.varint w c.failing;
  Codec.Writer.varint w c.passing

let read_counts r =
  let failing = Codec.Reader.varint r in
  let passing = Codec.Reader.varint r in
  { failing; passing }

let write w t =
  Codec.Writer.varint w t.runs;
  Codec.Writer.varint w t.failing_runs;
  Codec.Writer.list w
    (fun ((predicate : Sampling.predicate), c) ->
      write_site w predicate.Sampling.site;
      Codec.Writer.bool w predicate.Sampling.direction;
      write_counts w c)
    (Pred_map.bindings t.predicates);
  Codec.Writer.list w
    (fun (site, c) ->
      write_site w site;
      write_counts w c)
    (Site_map.bindings t.sites)

let read r =
  let runs = Codec.Reader.varint r in
  let failing_runs = Codec.Reader.varint r in
  let predicates =
    List.fold_left
      (fun acc (predicate, c) -> Pred_map.add predicate c acc)
      Pred_map.empty
      (Codec.Reader.list r (fun r ->
           let site = read_site r in
           let direction = Codec.Reader.bool r in
           let c = read_counts r in
           ({ Sampling.site; direction }, c)))
  in
  let sites =
    List.fold_left
      (fun acc (site, c) -> Site_map.add site c acc)
      Site_map.empty
      (Codec.Reader.list r (fun r ->
           let site = read_site r in
           let c = read_counts r in
           (site, c)))
  in
  { predicates; sites; runs; failing_runs }
