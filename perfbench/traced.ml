(* The traced run.  First a live run: the platform composed from the
   layers' public calls exactly as [Platform.run] composes it, with the
   calls into the hive timed from here — each upload's [Hive.inject],
   each [Hive.tick], each [Federation.superstep].  Its knowledge digest
   must equal the untraced run's.  Then an isolated pass: each layer's
   public function timed on fresh state, over a sample of the live
   run's upload stream and over the workload's own seeded session
   draws. *)

module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Engine = Softborg_exec.Engine
module Interp = Softborg_exec.Interp
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Anonymize = Softborg_trace.Anonymize
module Exec_tree = Softborg_tree.Exec_tree
module Sim = Softborg_net.Sim
module Transport = Softborg_net.Transport
module Hive = Softborg_hive.Hive
module Federation = Softborg_hive.Federation
module Knowledge = Softborg_hive.Knowledge
module Protocol = Softborg_hive.Protocol
module Trace_store = Softborg_hive.Trace_store
module Isolate = Softborg_hive.Isolate
module Fixgen = Softborg_hive.Fixgen
module Gap_memo = Softborg_hive.Gap_memo
module Verdict_cache = Softborg_solver.Verdict_cache
module Pod = Softborg_pod.Pod
module Feedback = Softborg_pod.Feedback
module Workload = Softborg_pod.Workload
module Platform = Softborg.Platform
open Common

(* ---- Spans ---------------------------------------------------------- *)

type span = {
  mutable calls : int;
  mutable busy : float;
  mutable words : float;
  mutable longest : float;
  mutable durations : float array;  (** First [calls] entries used. *)
}

let span () = { calls = 0; busy = 0.0; words = 0.0; longest = 0.0; durations = [||] }

(* A span counts minor words only: the runtime folds words allocated
   directly on the major heap into its counters at the next major slice,
   so they cannot be charged to the call that allocated them.  The
   instrumentation's own words (boxed clock reads) are measured once and
   subtracted, so [words_per_call] is the layer's own minor allocation. *)
let probe_words =
  lazy
    (let n = 1000 in
     let w0 = Gc.minor_words () in
     for _ = 1 to n do
       let a = Gc.minor_words () in
       let t = now () in
       ignore (Sys.opaque_identity (now () -. t, Gc.minor_words () -. a))
     done;
     (Gc.minor_words () -. w0) /. float_of_int n)

let record s f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  f ();
  let dt = now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  if s.calls = Array.length s.durations then begin
    let grown = Array.make (max 1024 (2 * s.calls)) 0.0 in
    Array.blit s.durations 0 grown 0 s.calls;
    s.durations <- grown
  end;
  s.durations.(s.calls) <- dt;
  s.calls <- s.calls + 1;
  s.busy <- s.busy +. dt;
  s.words <- s.words +. dw;
  if dt > s.longest then s.longest <- dt

let percentile s p =
  if s.calls = 0 then 0.0
  else begin
    let d = Array.sub s.durations 0 s.calls in
    Array.sort Float.compare d;
    d.(min (s.calls - 1) (int_of_float (p *. float_of_int s.calls)))
  end

let words_per_call s =
  if s.calls = 0 then 0.0 else (s.words /. float_of_int s.calls) -. Lazy.force probe_words

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- Live run ------------------------------------------------------- *)

type live = {
  wall : float;  (** Fleet construction to shutdown. *)
  sim_wall : float;  (** Inside [Sim.run]. *)
  fired : int;
  minor_gcs : int;
  major_gcs : int;
  hives : Hive.t list;  (** Every hive of the topology. *)
  knowledge : Knowledge.t list;  (** What [Platform.report.knowledge] holds. *)
  ingest : span;
  tick : span;
  superstep : span;
  captured : string list;  (** Sampled upload frames, in arrival order. *)
  sessions : int;
  uploaded : int;
}

(* [Sim.schedule] re-arming exactly as [Hive.start] does, with the tick
   timed. *)
let arm_tick sim ~interval span hive =
  let rec arm () =
    Sim.schedule sim ~delay:interval (fun () ->
        record span (fun () -> Hive.tick hive);
        arm ())
  in
  arm ()

(* [Platform.run]'s snapshot events, re-scheduled so the event queue —
   and so every tie broken by insertion order — matches the untraced
   run. *)
let arm_samples sim (config : Platform.config) on_sample =
  let rec sample at =
    if at <= config.Platform.duration then
      Sim.schedule_at sim ~time:at (fun () ->
          on_sample ();
          sample (at +. config.Platform.sample_interval))
  in
  sample config.Platform.sample_interval

let pod_config (config : Platform.config) =
  if config.Platform.hive_config.Hive.mode <> Hive.Full then
    invalid_arg "traced run: only SoftBorg-mode workloads are supported";
  { config.Platform.pod_config with Pod.upload = Pod.Full_traces }

let program_for (config : Platform.config) i =
  List.nth config.Platform.programs (i mod List.length config.Platform.programs)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let finish ~sim ~t_start ~ingest ~tick ~superstep ~captured ~pods ~hives ~knowledge
    ~shutdown (config : Platform.config) =
  let minor0, major0 = gc_counts () in
  let s0 = now () in
  Sim.run ~until:config.Platform.duration sim;
  let sim_wall = now () -. s0 in
  let minor1, major1 = gc_counts () in
  shutdown ();
  let wall = now () -. t_start in
  let metrics = List.map Pod.metrics pods in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 metrics in
  {
    wall;
    sim_wall;
    fired = Sim.fired sim;
    minor_gcs = minor1 - minor0;
    major_gcs = major1 - major0;
    hives;
    knowledge = knowledge ();
    ingest;
    tick;
    superstep;
    captured = List.rev !captured;
    sessions = sum (fun m -> m.Pod.sessions);
    uploaded = sum (fun m -> m.Pod.traces_uploaded);
  }

(* The upload frames kept for the isolated pass: the first
   [capture_head] (where each program's basis candidate appears), then
   every [capture_stride]-th.  Keeping them all would hold megabytes of
   live data the untraced run does not, and the major GC paces itself by
   the live heap. *)
let capture_head = 256
let capture_stride = 16

let live_single (config : Platform.config) =
  let ingest = span () and tick = span () and captured = ref [] and seen = ref 0 in
  let t_start = now () in
  let sim = Sim.create () in
  let rng = Rng.create config.Platform.seed in
  let hive = Hive.create ~config:config.Platform.hive_config ~sim () in
  List.iter (fun p -> ignore (Hive.register_program hive p)) config.Platform.programs;
  let pod_config = pod_config config in
  let pods =
    List.init config.Platform.n_pods (fun i ->
        let pod_end, hive_end =
          Transport.endpoint_pair ~config:config.Platform.transport_config ~sim
            ~rng:(Rng.split rng) ()
        in
        Hive.attach_pod hive hive_end;
        (* Replaces the handler [attach_pod] installed with the same
           receive path, timed; slot [i] is the slot [attach_pod]
           assigned. *)
        Transport.on_receive hive_end (fun payload ->
            if !seen < capture_head || !seen mod capture_stride = 0 then
              captured := payload :: !captured;
            incr seen;
            record ingest (fun () -> Hive.inject hive ~slot:i payload));
        Pod.create ~config:pod_config ~cohort:i ~sim ~rng:(Rng.split rng)
          ~program:(program_for config i) ~endpoint:pod_end ())
  in
  arm_tick sim ~interval:config.Platform.hive_config.Hive.analysis_interval tick hive;
  List.iter Pod.start pods;
  arm_samples sim config ignore;
  finish ~sim ~t_start ~ingest ~tick ~superstep:(span ()) ~captured ~pods ~hives:[ hive ]
    ~knowledge:(fun () -> Hive.knowledge_list hive)
    ~shutdown:(fun () -> Hive.shutdown hive)
    config

(* The federation [Platform.run] builds for [n_shards > 1]; kept in step
   with it by the fidelity check. *)
let federation_config (config : Platform.config) =
  let base = config.Platform.hive_config in
  {
    (Federation.default_config ~n_shards:config.Platform.n_shards ()) with
    Federation.superstep_interval = base.Hive.analysis_interval /. 2.0;
    synthesize = true;
    shard_hive = { base with Hive.synthesize = false; prove = false; pool_size = 1 };
    merged_hive = { base with Hive.pool_size = 1; overload = None };
    transport = config.Platform.transport_config;
    pool_size = base.Hive.pool_size;
  }

let live_federated (config : Platform.config) =
  let tick = span () and superstep = span () in
  let t_start = now () in
  let sim = Sim.create () in
  let rng = Rng.create config.Platform.seed in
  let fed_config = federation_config config in
  let fed = Federation.create ~config:fed_config ~sim ~rng:(Rng.split rng) () in
  List.iter (fun p -> ignore (Federation.register_program fed p)) config.Platform.programs;
  let pod_config = pod_config config in
  let pods =
    List.init config.Platform.n_pods (fun i ->
        let pod_end, hive_end =
          Transport.endpoint_pair ~config:config.Platform.transport_config ~sim
            ~rng:(Rng.split rng) ()
        in
        Federation.attach_pod fed hive_end;
        Pod.create ~config:pod_config ~cohort:i ~sim ~rng:(Rng.split rng)
          ~program:(program_for config i) ~endpoint:pod_end ())
  in
  (* [Federation.start]: every shard's tick, then the superstep. *)
  let shards = List.init (Federation.n_shards fed) (Federation.shard_hive fed) in
  List.iter
    (arm_tick sim ~interval:fed_config.Federation.shard_hive.Hive.analysis_interval tick)
    shards;
  (let rec arm () =
     Sim.schedule sim ~delay:fed_config.Federation.superstep_interval (fun () ->
         record superstep (fun () -> Federation.superstep fed);
         arm ())
   in
   arm ());
  List.iter Pod.start pods;
  arm_samples sim config ignore;
  finish ~sim ~t_start ~ingest:(span ()) ~tick ~superstep ~captured:(ref []) ~pods
    ~hives:(Federation.merged fed :: shards)
    ~knowledge:(fun () -> Hive.knowledge_list (Federation.merged fed))
    ~shutdown:(fun () -> Federation.shutdown fed)
    config

(* ---- Isolated layer pass -------------------------------------------- *)

let sessions_per_pass = 4000
let max_replayed = 3000

let time_loop f =
  let w0 = words_allocated () in
  let t0 = now () in
  f ();
  (now () -. t0, words_allocated () -. w0)

type session = { program : Ir.t; pod : int; env : Env.t; sched : Sched.policy }

(* The workload's own session draws, made the way a pod makes them. *)
let draw_sessions (config : Platform.config) ~seed =
  let pc = config.Platform.pod_config in
  let rng = Rng.create seed in
  List.init sessions_per_pass (fun i ->
      let pod = i mod config.Platform.n_pods in
      let program = program_for config pod in
      let inputs = Workload.draw rng pc.Pod.workload ~n_inputs:program.Ir.n_inputs in
      let fault_plan =
        if pc.Pod.fault_probability > 0.0 then Env.Random_faults pc.Pod.fault_probability
        else Env.No_faults
      in
      let env = Env.make ~fault_plan ~seed:(Rng.int rng 1_000_000) ~inputs () in
      { program; pod; env; sched = Sched.Random_sched (Rng.split rng) })

let execute (pc : Pod.config) s =
  Engine.run ~max_steps:pc.Pod.max_steps ~engine:pc.Pod.engine ~program:s.program ~env:s.env
    ~sched:s.sched ()

(* A pod's upload of one result, before encoding. *)
let to_trace (pc : Pod.config) s (result : Interp.result) =
  let signal =
    Feedback.signal_of_run ~outcome:result.Interp.outcome ~steps:result.Interp.steps
      ~slow_threshold:pc.Pod.slow_threshold
  in
  let label = Feedback.label_of_signal signal ~outcome:result.Interp.outcome in
  let attribution =
    if pc.Pod.attribute_fixes then
      Some
        {
          Trace.active_fixes = [];
          hook_fires = result.Interp.suppressed_crashes + result.Interp.deferred_acquisitions;
        }
    else None
  in
  Anonymize.apply pc.Pod.anonymize
    (Trace.of_result ~program_digest:(Ir.digest s.program) ~pod:s.pod ~fix_epoch:0
       ?attribution
       { result with Interp.outcome = label })

(* Frames as the workload's pods send them: one per trace, or batches
   per program anchored on their first record (the framing pods use
   before the hive announces a basis). *)
let encode_frames (pc : Pod.config) traces =
  if pc.Pod.upload_batch <= 1 then
    List.map (fun t -> Protocol.encode (Protocol.Trace_upload (Wire.encode t))) traces
  else begin
    let pending = Hashtbl.create 8 and frames = ref [] in
    let flush digest batch =
      match List.rev batch with
      | [] -> ()
      | first :: rest ->
        let records =
          if pc.Pod.delta_encode then
            Wire.encode_record first :: List.map (Wire.encode_record ~basis:first) rest
          else List.map (fun t -> Wire.encode_record t) (first :: rest)
        in
        frames :=
          Protocol.encode
            (Protocol.Batch_upload
               { program_digest = digest; basis_id = 0; basis_check = 0; records })
          :: !frames
    in
    List.iter
      (fun (t : Trace.t) ->
        let digest = t.Trace.program_digest in
        let batch = t :: Option.value ~default:[] (Hashtbl.find_opt pending digest) in
        if List.length batch >= pc.Pod.upload_batch then begin
          flush digest batch;
          Hashtbl.remove pending digest
        end
        else Hashtbl.replace pending digest batch)
      traces;
    Hashtbl.fold (fun d b acc -> (d, b) :: acc) pending []
    |> List.sort compare
    |> List.iter (fun (d, b) -> flush d b);
    List.rev !frames
  end

exception Undecodable

(* Decode frames as the hive does, tracking each program's basis the
   way the hive picks it (the first trace with branch bits) and checking
   it against the frame's fingerprint.  Only sampled frames reach here,
   so a batch whose basis came from an unsampled frame is skipped and
   counted, not decoded. *)
let decode_frames frames =
  let candidates = Hashtbl.create 8 and decoded = ref [] and skipped = ref 0 in
  let basis_for ~program_digest ~basis_check =
    match Hashtbl.find_opt candidates program_digest with
    | Some (t, prep)
      when Protocol.basis_fingerprint prep.Trace_store.p_encoded = basis_check ->
      Some t
    | _ -> None
  in
  let keep (t : Trace.t) =
    decoded := t :: !decoded;
    if Bitvec.length t.Trace.bits > 0 && not (Hashtbl.mem candidates t.Trace.program_digest)
    then Hashtbl.replace candidates t.Trace.program_digest (t, Trace_store.prepare t)
  in
  let ok = function Ok t -> t | Error _ -> raise Undecodable in
  let decode_one frame =
    match Protocol.decode frame with
    | Error _ -> raise Undecodable
    | Ok (Protocol.Trace_upload payload) -> keep (ok (Wire.decode payload))
    | Ok (Protocol.Batch_upload { program_digest; basis_id; basis_check; records }) -> (
      if basis_id <> 0 then begin
        match basis_for ~program_digest ~basis_check with
        | None -> incr skipped
        | Some basis ->
          List.iter (fun r -> keep (ok (Wire.decode_record ~basis ~program_digest r))) records
      end
      else
        match records with
        | [] -> ()
        | first :: rest ->
          let anchor = ok (Wire.decode_record ~program_digest first) in
          keep anchor;
          List.iter
            (fun r -> keep (ok (Wire.decode_record ~basis:anchor ~program_digest r)))
            rest)
    | Ok _ -> ()
  in
  let seconds, _ = time_loop (fun () -> List.iter decode_one frames) in
  (List.rev !decoded, List.length frames - !skipped, seconds)

(* Every [stride]-th element, at most [n] of them, order kept. *)
let spread n xs =
  let len = List.length xs in
  let stride = max 1 ((len + n - 1) / n) in
  List.filteri (fun i _ -> i mod stride = 0) xs

let replayable (t : Trace.t) = not (t.Trace.steps = 0 && t.Trace.n_decisions = 0)

(* [Knowledge]'s replay hooks for a trace, from the live run's final
   fix set. *)
let replay_hooks k (t : Trace.t) =
  match t.Trace.attribution with
  | Some a -> Fixgen.runtime_hooks_for_ids ~ids:a.Trace.active_fixes (Knowledge.fixes k)
  | None -> Knowledge.hooks_for_epoch k t.Trace.fix_epoch

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* One fresh value per key, made on first use. *)
let fresh make =
  let tbl = Hashtbl.create 8 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some x -> x
    | None ->
      let x = make key in
      Hashtbl.replace tbl key x;
      x

let isolated (config : Platform.config) ~seed ~captured ~knowledge =
  let pc = config.Platform.pod_config in
  let sessions = draw_sessions config ~seed in
  (* Compile each program once (the VM's cache) before timing. *)
  List.iter
    (fun p ->
      ignore
        (Engine.run ~engine:pc.Pod.engine ~program:p
           ~env:(Env.make ~seed:0 ~inputs:(Array.make p.Ir.n_inputs 0) ())
           ~sched:Sched.Round_robin ()))
    config.Platform.programs;
  let results = ref [] in
  let exec_s, exec_w =
    time_loop (fun () -> List.iter (fun s -> results := execute pc s :: !results) sessions)
  in
  let traces = List.map2 (to_trace pc) sessions (List.rev !results) in
  let frames = ref [] in
  let encode_s, _ = time_loop (fun () -> frames := encode_frames pc traces) in
  (* The hive side reads the live run's upload stream where the hive's
     receive path is public; a federation's shard endpoints are not, so
     there it reads the frames just encoded. *)
  let upstream = if captured = [] then !frames else captured in
  let decoded, n_frames, decode_s = decode_frames upstream in
  let knowledge_of = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace knowledge_of (Knowledge.digest k) k) knowledge;
  let sample =
    spread max_replayed (List.filter replayable decoded)
    |> List.filter_map (fun (t : Trace.t) ->
           Option.map (fun k -> (t, k)) (Hashtbl.find_opt knowledge_of t.Trace.program_digest))
  in
  let hooked = List.map (fun (t, k) -> (t, k, replay_hooks k t)) sample in
  let replays = ref [] in
  let recon_s, recon_w =
    time_loop (fun () ->
        List.iter
          (fun ((t : Trace.t), k, hooks) ->
            match
              Interp.reconstruct ~hooks ~program:(Knowledge.program k) ~bits:t.Trace.bits
                ~schedule:t.Trace.schedule ~total_decisions:t.Trace.n_decisions
                ~total_steps:t.Trace.steps ()
            with
            | Ok r -> replays := (t, r) :: !replays
            | Error _ -> ())
          hooked)
  in
  let replays = List.rev !replays in
  let tree_of = fresh (fun _ -> Exec_tree.create ()) in
  let isolate_of = fresh (fun _ -> Isolate.create ()) in
  let tree_s, tree_w =
    time_loop (fun () ->
        List.iter
          (fun ((t : Trace.t), (r : Interp.reconstruction)) ->
            ignore
              (Exec_tree.add_path (tree_of t.Trace.program_digest) r.Interp.decisions
                 t.Trace.outcome))
          replays)
  in
  let isolate_s, _ =
    time_loop (fun () ->
        List.iter
          (fun ((t : Trace.t), (r : Interp.reconstruction)) ->
            Isolate.record_path (isolate_of t.Trace.program_digest)
              ~full_path:r.Interp.decisions ~outcome:t.Trace.outcome)
          replays)
  in
  (* Fresh knowledge carrying the live run's final fix set, so replays
     take the hooks the live hive would give them. *)
  let fresh_knowledge =
    fresh (fun digest ->
        let live_k = Hashtbl.find knowledge_of digest in
        let k = Knowledge.create (Knowledge.program live_k) in
        Knowledge.set_rollout k config.Platform.hive_config.Hive.rollout;
        Knowledge.adopt_fixes k ~fixes:(Knowledge.fixes live_k) ~epoch:(Knowledge.epoch live_k)
          ~retracted:(Knowledge.retracted_ids live_k);
        k)
  in
  let prepared =
    List.map
      (fun ((t : Trace.t), _) -> (fresh_knowledge t.Trace.program_digest, t, Trace_store.prepare t))
      sample
  in
  let ingest_s, _ =
    time_loop (fun () ->
        List.iter (fun (k, t, prep) -> ignore (Knowledge.ingest_trace ~prepared:prep k t)) prepared)
  in
  let n_sessions = List.length sessions and n_replayed = List.length replays in
  let us x = x *. 1e6 in
  [
    ("pod.execute.us_per_session", us (per n_sessions exec_s), "us");
    ("pod.execute.words_per_session", per n_sessions exec_w, "words");
    ("trace.encode.us_per_trace", us (per (List.length traces) encode_s), "us");
    ("trace.decode.us_per_frame", us (per n_frames decode_s), "us");
    ("exec.reconstruct.us_per_trace", us (per (List.length hooked) recon_s), "us");
    ("exec.reconstruct.words_per_trace", per (List.length hooked) recon_w, "words");
    ("tree.add_path.us_per_path", us (per n_replayed tree_s), "us");
    ("tree.add_path.words_per_path", per n_replayed tree_w, "words");
    ("isolate.record_path.us_per_path", us (per n_replayed isolate_s), "us");
    ("knowledge.ingest.us_per_trace", us (per (List.length prepared) ingest_s), "us");
  ]

(* ---- Report --------------------------------------------------------- *)

let counters (live : live) =
  let ks = List.concat_map Hive.knowledge_list live.hives in
  let sum f = List.fold_left (fun acc k -> acc + f k) 0 ks in
  let ingested = sum Knowledge.traces_ingested in
  let memo_hits = sum (fun k -> Gap_memo.hits (Knowledge.gap_memo k)) in
  let memo_misses = sum (fun k -> Gap_memo.misses (Knowledge.gap_memo k)) in
  let vc_hits = sum (fun k -> Verdict_cache.hits (Knowledge.verdict_cache k)) in
  let vc_misses = sum (fun k -> Verdict_cache.misses (Knowledge.verdict_cache k)) in
  let stored = sum (fun k -> Trace_store.bytes_stored (Knowledge.store k)) in
  let received = sum (fun k -> Trace_store.bytes_received (Knowledge.store k)) in
  [
    ("hive.replay_cache.hit_rate", ratio (sum Knowledge.replay_cache_hits) ingested, "ratio");
    ("hive.store.dedup_ratio", ratio received stored, "ratio");
    ("hive.gap_memo.hit_rate", ratio memo_hits (memo_hits + memo_misses), "ratio");
    ("solver.verdict_cache.hit_rate", ratio vc_hits (vc_hits + vc_misses), "ratio");
    ("hive.replay_errors", float_of_int (sum Knowledge.replay_errors), "count");
  ]

let run (w : Workloads.t) ~pods ~duration ~seed =
  let config, _setup_s = Workloads.setup w ~pods ~duration ~seed in
  ignore (Lazy.force probe_words);
  let summary, layers, captured, knowledge =
    let live =
      if config.Platform.n_shards > 1 then live_federated config else live_single config
    in
    let ingested =
      List.fold_left (fun acc k -> acc + Knowledge.traces_ingested k) 0 live.knowledge
    in
    let share x = x /. live.wall in
    let hive_busy = live.ingest.busy +. live.tick.busy +. live.superstep.busy in
    let fleet_self = live.sim_wall -. hive_busy in
    let per_ktrace n = per ingested (float_of_int n *. 1000.0) in
    let layers =
      [
        ("hive.ingest.calls", float_of_int live.ingest.calls, "count");
        ("hive.ingest.busy_s", live.ingest.busy, "s");
        ("hive.ingest.share", share live.ingest.busy, "ratio");
        ("hive.ingest.us_p50", percentile live.ingest 0.5 *. 1e6, "us");
        ("hive.ingest.us_p99", percentile live.ingest 0.99 *. 1e6, "us");
        ("hive.ingest.words_per_call", words_per_call live.ingest, "words");
        ("hive.tick.calls", float_of_int live.tick.calls, "count");
        ("hive.tick.busy_s", live.tick.busy, "s");
        ("hive.tick.share", share live.tick.busy, "ratio");
        ("hive.tick.ms_max", live.tick.longest *. 1e3, "ms");
        ("hive.tick.words_per_call", words_per_call live.tick, "words");
        ("federation.superstep.calls", float_of_int live.superstep.calls, "count");
        ("federation.superstep.busy_s", live.superstep.busy, "s");
        ("federation.superstep.ms_max", live.superstep.longest *. 1e3, "ms");
        ("fleet.self_s", fleet_self, "s");
        ("fleet.share", share fleet_self, "ratio");
        ("net.events_per_trace", per ingested (float_of_int live.fired), "events/trace");
        ("gc.minor_collections_per_ktrace", per_ktrace live.minor_gcs, "count/ktrace");
        ("gc.major_collections_per_ktrace", per_ktrace live.major_gcs, "count/ktrace");
        ("trace.unattributed_share", share (live.wall -. live.sim_wall), "ratio");
      ]
      @ counters live
    in
    let summary =
      [
        ("workload", String w.Workloads.name);
        ("seed", Int seed);
        ("digest", String (knowledge_digest live.knowledge));
        ("wall_s", Float live.wall);
        ("sim_wall_s", Float live.sim_wall);
        ("sessions", Int live.sessions);
        ("traces_uploaded", Int live.uploaded);
        ("traces_ingested", Int ingested);
      ]
    in
    (summary, layers, live.captured, live.knowledge)
  in
  (* The live fleet is garbage now; time the isolated pass on a compact
     heap rather than one still holding the run. *)
  Gc.compact ();
  let layers = layers @ isolated config ~seed ~captured ~knowledge in
  let metric (name, v, unit) = (name, Obj [ ("value", Float v); ("unit", String unit) ]) in
  print_json (summary @ [ ("layers", Obj (List.map metric layers)) ])
