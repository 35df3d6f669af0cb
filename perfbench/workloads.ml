(* The benchmark's workloads: fixed platform scenarios over which only
   the fleet seed varies.  The programs are part of the workload — the
   two corpus programs are fixed, and the generated population is always
   drawn from [population_seed] — so a run's [--seed] changes the
   sessions' inputs, schedules and the network's draws, never the code
   under load. *)

module Corpus = Softborg_prog.Corpus
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario

type t = {
  name : string;
  pods : int;
  duration : float;  (** Simulated seconds. *)
  build : pods:int -> duration:float -> seed:int -> Platform.config;
      (** Program generation plus scenario/config build: the set-up a
          platform run needs before its simulation starts. *)
}

let population_seed = 42

let sized ~pods ~duration ~seed config =
  {
    config with
    Platform.seed;
    n_pods = pods;
    duration;
    (* What `softborg simulate` uses. *)
    sample_interval = duration /. 10.0;
  }

let corpus program ~pods ~duration ~seed =
  sized ~pods ~duration ~seed (Scenario.single_program ~seed program)

let population ~shards ~pods ~duration ~seed =
  let config, _planted = Scenario.buggy_population ~seed:population_seed () in
  let config = sized ~pods ~duration ~seed config in
  let config = if shards > 1 then Scenario.with_shards shards config else config in
  Scenario.with_rollout (Scenario.with_fleet_encoding config)

let all =
  [
    {
      name = "fleet-parser";
      pods = 200;
      duration = 300.0;
      build = corpus Corpus.parser;
    };
    {
      name = "deep-checksum";
      pods = 200;
      duration = 100.0;
      build = corpus Corpus.checksum;
    };
    {
      name = "population-canary";
      pods = 200;
      duration = 300.0;
      build = population ~shards:1;
    };
    {
      name = "population-fed2";
      pods = 200;
      duration = 300.0;
      build = population ~shards:2;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Set-up is repeated and its median reported: one build takes about a
   millisecond, too short to time once. *)
let setup_reps = 15

let setup w ~pods ~duration ~seed =
  let times = ref [] and config = ref None in
  for _ = 1 to setup_reps do
    let t0 = Common.now () in
    let c = w.build ~pods ~duration ~seed in
    times := (Common.now () -. t0) :: !times;
    config := Some c
  done;
  (Option.get !config, Common.median !times)
