(* Pipeline benchmark: one platform run per process.

     pipeline.exe e2e    --workload NAME --seed N [--pods P] [--duration S]
     pipeline.exe traced --workload NAME --seed N [--pods P] [--duration S]

   [e2e] times [Platform.run] — the path `softborg simulate` takes —
   with no instrumentation.  [traced] composes the same platform from
   the layers' public calls, times the calls into each layer, and then
   times each layer's public function in isolation.  Both print one
   JSON object; `run.py` aggregates fresh processes of them.  Every
   timed run needs a fresh process: pod ids come from a process-global
   counter, so a second run in one process uploads different bytes. *)

module Metrics = Softborg.Metrics
module Platform = Softborg.Platform
module Knowledge = Softborg_hive.Knowledge
open Common

let first_fix_time (report : Platform.report) =
  List.find_map
    (fun (s : Metrics.snapshot) ->
      if s.Metrics.fixes_deployed > 0 then Some s.Metrics.time else None)
    report.Platform.snapshots

let outcome_fields (report : Platform.report) =
  let f = report.Platform.final in
  let ingested =
    List.fold_left (fun acc k -> acc + Knowledge.traces_ingested k) 0 report.Platform.knowledge
  in
  [
    ("digest", String (knowledge_digest report.Platform.knowledge));
    ("sessions", Int f.Metrics.sessions);
    ("traces_uploaded", Int f.Metrics.traces_uploaded);
    ("traces_ingested", Int ingested);
    ( "traces_lost",
      Int (f.Metrics.dead_letters + f.Metrics.shed_uploads + f.Metrics.quarantined_frames) );
    ("wire_bytes", Int f.Metrics.wire_bytes);
    ("user_failure_rate", Float (Metrics.failure_rate f));
    ("ttff_sim_s", match first_fix_time report with Some t -> Float t | None -> Float nan);
  ]

let e2e (w : Workloads.t) ~pods ~duration ~seed =
  let config, setup_s = Workloads.setup w ~pods ~duration ~seed in
  let words0 = words_allocated () in
  let t0 = now () in
  let report = Platform.run config in
  let wall = now () -. t0 in
  let words = words_allocated () -. words0 in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  print_json
    ([
       ("workload", String w.Workloads.name);
       ("seed", Int seed);
       ("setup_s", Float setup_s);
       ("wall_s", Float wall);
       ("alloc_words", Float words);
       ("peak_heap_mb", Float (float_of_int (heap * (Sys.word_size / 8)) /. 1048576.0));
     ]
    @ outcome_fields report)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 42 and pods = ref 0 and duration = ref 0.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N fleet seed (default 42)");
      ("--pods", Arg.Set_int pods, "P override the workload's fleet size");
      ("--duration", Arg.Set_float duration, "S override the simulated seconds");
    ]
  in
  let usage = "pipeline.exe (e2e|traced) --workload NAME --seed N" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  match Workloads.find !workload with
  | None ->
    Printf.eprintf "unknown workload %S\n" !workload;
    exit 2
  | Some w -> (
    let pods = if !pods > 0 then !pods else w.Workloads.pods in
    let duration = if !duration > 0.0 then !duration else w.Workloads.duration in
    match mode with
    | "e2e" -> e2e w ~pods ~duration ~seed:!seed
    | "traced" -> Traced.run w ~pods ~duration ~seed:!seed
    | _ ->
      prerr_endline usage;
      exit 2)
