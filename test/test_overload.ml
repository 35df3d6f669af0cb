(* Overload protection: admission control and shedding at the hive,
   backpressure and adaptive sampling at the pods, poison-trace
   quarantine at the decode boundary, transport dead-lettering, and
   config validation.  The central invariants: the ingest queue never
   exceeds its bound, failure-class uploads are never shed before
   success-class ones, poison frames can neither crash the hive nor
   corrupt its knowledge, and at pressure level 0 an overload config is
   byte-identical to the default instant-service admission. *)

module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Codec = Softborg_util.Codec
module Ir = Softborg_prog.Ir
module Corpus = Softborg_prog.Corpus
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Outcome = Softborg_exec.Outcome
module Trace = Softborg_trace.Trace
module Wire = Softborg_trace.Wire
module Exec_tree = Softborg_tree.Exec_tree
module Sim = Softborg_net.Sim
module Link = Softborg_net.Link
module Transport = Softborg_net.Transport
module Hive = Softborg_hive.Hive
module Knowledge = Softborg_hive.Knowledge
module Checkpoint = Softborg_hive.Checkpoint
module Protocol = Softborg_hive.Protocol
module Pod = Softborg_pod.Pod
module Workload = Softborg_pod.Workload
module Platform = Softborg.Platform
module Scenario = Softborg.Scenario
module Metrics = Softborg.Metrics

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---- Config validation ------------------------------------------------ *)

let field_of = function Ok _ -> "ok" | Error { Link.field; _ } -> field
let tfield_of = function Ok _ -> "ok" | Error { Transport.field; _ } -> field

let test_link_config_validation () =
  let base = Link.default_config in
  Alcotest.(check string) "valid accepted" "ok" (field_of (Link.validate_config base));
  List.iter
    (fun (label, config, field) ->
      Alcotest.(check string) label field (field_of (Link.validate_config config)))
    [
      ("negative drop", { base with Link.drop_probability = -0.1 }, "drop_probability");
      ("drop above one", { base with Link.drop_probability = 1.5 }, "drop_probability");
      ("nan drop", { base with Link.drop_probability = Float.nan }, "drop_probability");
      ("negative mean", { base with Link.mean_latency = -1.0 }, "mean_latency");
      ("infinite mean", { base with Link.mean_latency = Float.infinity }, "mean_latency");
      ("negative floor", { base with Link.min_latency = -0.01 }, "min_latency");
    ];
  (* Construction sites enforce the same rule. *)
  let sim = Sim.create () in
  (match
     Link.create ~config:{ base with Link.drop_probability = 2.0 } ~sim ~rng:(Rng.create 1) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Link.create accepted an invalid config");
  let link = Link.create ~sim ~rng:(Rng.create 1) () in
  match Link.set_config link { base with Link.mean_latency = Float.nan } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_config accepted an invalid config"

let test_transport_config_validation () =
  let base = Transport.default_config in
  Alcotest.(check string) "valid accepted" "ok" (tfield_of (Transport.validate_config base));
  List.iter
    (fun (label, config, field) ->
      Alcotest.(check string) label field (tfield_of (Transport.validate_config config)))
    [
      ("zero timeout", { base with Transport.retry_timeout = 0.0 }, "retry_timeout");
      ("negative timeout", { base with Transport.retry_timeout = -1.0 }, "retry_timeout");
      ("nan timeout", { base with Transport.retry_timeout = Float.nan }, "retry_timeout");
      ("negative retries", { base with Transport.max_retries = -1 }, "max_retries");
      ("backoff below one", { base with Transport.backoff = 0.5 }, "backoff");
      ("nan backoff", { base with Transport.backoff = Float.nan }, "backoff");
      ( "bad nested link",
        { base with Transport.link = { base.Transport.link with Link.drop_probability = 7.0 } },
        "link.drop_probability" );
    ];
  match
    Transport.endpoint_pair
      ~config:{ base with Transport.backoff = 0.0 }
      ~sim:(Sim.create ()) ~rng:(Rng.create 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "endpoint_pair accepted an invalid config"

(* ---- Transport dead-letter -------------------------------------------- *)

let test_dead_letter_callback () =
  (* A link dropping everything with a tiny retry budget: every send is
     abandoned, and each abandonment must surface through on_give_up
     with its payload. *)
  let sim = Sim.create () in
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 1.0; mean_latency = 0.01; min_latency = 0.001 };
      retry_timeout = 0.05;
      max_retries = 2;
    }
  in
  let a, _b = Transport.endpoint_pair ~config ~sim ~rng:(Rng.create 5) () in
  let dead = ref [] in
  Transport.on_give_up a (fun payload -> dead := payload :: !dead);
  let payloads = List.init 7 (fun i -> Printf.sprintf "upload-%d" i) in
  List.iter (Transport.send a) payloads;
  Sim.run sim;
  checki "every send gave up" 7 (Transport.stats a).Transport.gave_up;
  checki "every give-up dead-lettered" 7 (List.length !dead);
  Alcotest.(check (list string))
    "payloads preserved" (List.sort compare payloads)
    (List.sort compare !dead)

let test_dead_letter_resend_after_heal () =
  (* A dead-lettered payload re-sent after the link heals is delivered
     exactly once: the re-send has a fresh sequence number and budget. *)
  let sim = Sim.create () in
  let config =
    {
      Transport.default_config with
      Transport.link = { Link.drop_probability = 1.0; mean_latency = 0.01; min_latency = 0.001 };
      retry_timeout = 0.05;
      max_retries = 1;
    }
  in
  let a, b = Transport.endpoint_pair ~config ~sim ~rng:(Rng.create 6) () in
  let received = ref [] in
  Transport.on_receive b (fun payload -> received := payload :: !received);
  let dead = ref [] in
  Transport.on_give_up a (fun payload -> dead := payload :: !dead);
  Transport.send a "precious";
  Sim.run sim;
  checki "abandoned under total loss" 1 (List.length !dead);
  checki "nothing delivered" 0 (List.length !received);
  (match Transport.out_link a with
  | Some link -> Link.set_config link Link.lan
  | None -> Alcotest.fail "endpoint has no link");
  List.iter (Transport.send a) !dead;
  Sim.run sim;
  Alcotest.(check (list string)) "re-send delivered once" [ "precious" ] !received

(* ---- Decode caps and quarantine boundary ------------------------------ *)

let run_once program inputs =
  Interp.run ~program ~env:(Env.make ~seed:3 ~inputs ()) ~sched:Sched.Round_robin ()

let success_trace () =
  let r = run_once Corpus.parser [| 1; 2; 3 |] in
  Trace.of_result ~program_digest:(Ir.digest Corpus.parser) ~pod:1 ~fix_epoch:0 r

let failure_trace () =
  let r = run_once Corpus.parser Corpus.parser_trigger in
  let trace = Trace.of_result ~program_digest:(Ir.digest Corpus.parser) ~pod:1 ~fix_epoch:0 r in
  checkb "trigger run fails" true (Outcome.is_failure trace.Trace.outcome);
  trace

let test_caps_reject_oversize () =
  let caps = { Wire.default_caps with Wire.max_message_bytes = 16 } in
  (match Wire.decode ~caps (String.make 64 '\x00') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame decoded");
  (match Protocol.decode ~caps (String.make 64 '\x00') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize protocol frame decoded");
  (* Honest traffic decodes under default caps. *)
  let encoded = Wire.encode (success_trace ()) in
  match Wire.decode ~caps:Wire.default_caps encoded with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest trace rejected: %a" Wire.pp_error e

let test_caps_reject_branch_bits () =
  let trace = success_trace () in
  checkb "trace has branch bits" true (Bitvec.length trace.Trace.bits > 0);
  let caps = { Wire.default_caps with Wire.max_branch_bits = 0 } in
  match Wire.decode ~caps (Wire.encode trace) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-cap branch bits decoded"

let test_caps_reject_lock_events () =
  let w = Codec.Writer.create () in
  Wire.encode_outcome w
    (Outcome.Deadlock { waiting = List.init 32 (fun i -> (i, i + 1)) });
  let encoded = Codec.Writer.contents w in
  let caps = { Wire.default_caps with Wire.max_lock_events = 4 } in
  (match Wire.decode_outcome ~caps (Codec.Reader.of_string encoded) with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "over-cap lock set decoded");
  (* Under the cap it still decodes. *)
  match Wire.decode_outcome ~caps:Wire.default_caps (Codec.Reader.of_string encoded) with
  | Outcome.Deadlock { waiting } -> checki "lock set intact" 32 (List.length waiting)
  | _ -> Alcotest.fail "deadlock outcome lost"

(* ---- Byte-mutation fuzz ------------------------------------------------ *)

let mutate s pos byte =
  let b = Bytes.of_string s in
  Bytes.set b (pos mod String.length s) (Char.chr (byte land 0xff));
  Bytes.to_string b

let total_or_fail name decode s =
  match decode s with
  | (_ : (_, _) result) -> true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)

let fuzz_wire_mutation =
  let encoded = Wire.encode (success_trace ()) in
  QCheck.Test.make ~name:"wire decode is total under byte mutation" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos, byte) ->
      let mutated = mutate encoded pos byte in
      total_or_fail "Wire.decode" (Wire.decode ~caps:Wire.default_caps) mutated
      && total_or_fail "Wire.decode (no caps)" Wire.decode mutated)

let fuzz_wire_truncation =
  let encoded = Wire.encode (failure_trace ()) in
  QCheck.Test.make ~name:"valid-prefix truncations rejected cleanly" ~count:200
    QCheck.(int_range 0 (String.length encoded - 1))
    (fun len ->
      let prefix = String.sub encoded 0 len in
      match Wire.decode ~caps:Wire.default_caps prefix with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "strict prefix of %d/%d bytes decoded Ok" len
                  (String.length encoded)
      | exception e ->
        QCheck.Test.fail_reportf "prefix decode raised %s" (Printexc.to_string e))

let fuzz_checkpoint_mutation =
  let k = Knowledge.create Corpus.parser in
  List.iter
    (fun inputs -> ignore (Knowledge.ingest_trace k
         (Trace.of_result ~program_digest:(Knowledge.digest k) ~pod:0 ~fix_epoch:0
            (run_once Corpus.parser inputs))))
    [ [| 1; 2; 3 |]; [| 4; 5; 6 |]; Corpus.parser_trigger ];
  let frame = Checkpoint.encode [ k ] in
  QCheck.Test.make ~name:"checkpoint decode is total under mutation and truncation" ~count:300
    QCheck.(triple small_nat small_nat bool)
    (fun (pos, byte, truncate) ->
      let attacked =
        if truncate then String.sub frame 0 (pos mod String.length frame)
        else mutate frame pos byte
      in
      total_or_fail "Checkpoint.decode" Checkpoint.decode attacked)

let fuzz_protocol_garbage =
  QCheck.Test.make ~name:"protocol decode is total on arbitrary bytes" ~count:200
    QCheck.string
    (fun s -> total_or_fail "Protocol.decode" (Protocol.decode ~caps:Wire.default_caps) s)

(* ---- Hive admission control ------------------------------------------- *)

(* A hive wired to [n] pod-side endpoints over lossless LAN links, with
   a service interval so large that nothing drains during the test —
   the queue state is fully controlled by what the test sends. *)
let overloaded_hive ?(n = 2) ?(overload = Hive.default_overload_config) () =
  let sim = Sim.create () in
  let rng = Rng.create 17 in
  let config = { (Hive.default_config Hive.Full) with Hive.overload = Some overload } in
  let hive = Hive.create ~config ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  let transport_config = { Transport.default_config with Transport.link = Link.lan } in
  let pods =
    List.init n (fun _ ->
        let pod_end, hive_end =
          Transport.endpoint_pair ~config:transport_config ~sim ~rng:(Rng.split rng) ()
        in
        Hive.attach_pod hive hive_end;
        pod_end)
  in
  (sim, hive, pods)

let upload trace = Protocol.encode (Protocol.Trace_upload (Wire.encode trace))

let test_queue_never_exceeds_bound () =
  let overload =
    { Hive.default_overload_config with Hive.queue_bound = 4; service_interval = 1000.0 }
  in
  let sim, hive, pods = overloaded_hive ~n:1 ~overload () in
  let pod = List.hd pods in
  let ok = upload (success_trace ()) in
  (* First upload is processed on arrival; the rest pile up. *)
  for _ = 1 to 10 do
    Transport.send pod ok
  done;
  Sim.run ~until:5.0 sim;
  let stats = Hive.stats hive in
  checki "queue clamped at the bound" 4 (Hive.queue_length hive);
  checki "peak equals the bound" 4 stats.Hive.peak_queue_depth;
  checki "overflow shed" 5 stats.Hive.shed_success;
  checki "one processed at arrival" 1 stats.Hive.traces_received;
  checki "pressure saturated" 3 (Hive.pressure_level hive);
  (* Let the drain work through the backlog: pressure recovers to 0. *)
  Sim.run ~until:10_000.0 sim;
  checki "queue drained" 0 (Hive.queue_length hive);
  checki "pressure recovered" 0 (Hive.pressure_level hive);
  checki "backlog ingested" 5 (Hive.stats hive).Hive.traces_received

let test_prefer_failures_sheds_successes_first () =
  let overload =
    { Hive.default_overload_config with Hive.queue_bound = 3; service_interval = 1000.0 }
  in
  let sim, hive, pods = overloaded_hive ~n:1 ~overload () in
  let pod = List.hd pods in
  let ok = upload (success_trace ()) in
  let bad = upload (failure_trace ()) in
  (* One processed at arrival, then fill the queue with successes and
     push failures into a full queue: every failure must displace a
     queued success. *)
  List.iter (Transport.send pod) [ ok; ok; ok; ok; bad; bad; bad ];
  Sim.run ~until:5.0 sim;
  let stats = Hive.stats hive in
  checki "successes shed" 3 stats.Hive.shed_success;
  checki "no failure shed" 0 stats.Hive.shed_failure;
  Sim.run ~until:10_000.0 sim;
  (* All three failures survived the shedding and reached knowledge. *)
  match Hive.knowledge hive ~digest:(Ir.digest Corpus.parser) with
  | None -> Alcotest.fail "knowledge missing"
  | Some k -> checki "all failures ingested" 3 (Knowledge.failures_observed k)

let test_drop_policies () =
  let run policy =
    let overload =
      {
        Hive.default_overload_config with
        Hive.queue_bound = 2;
        service_interval = 1000.0;
        shed_policy = policy;
      }
    in
    let sim, hive, pods = overloaded_hive ~n:1 ~overload () in
    let pod = List.hd pods in
    let ok = upload (success_trace ()) in
    List.iter (Transport.send pod) [ ok; ok; ok; ok; ok ];
    Sim.run ~until:5.0 sim;
    Hive.stats hive
  in
  let newest = run Hive.Drop_newest in
  checki "drop-newest sheds overflow" 2 newest.Hive.shed_success;
  let oldest = run Hive.Drop_oldest in
  checki "drop-oldest sheds the same count" 2 oldest.Hive.shed_success;
  checki "drop-oldest keeps the bound" 2 oldest.Hive.peak_queue_depth

let test_poison_quarantine_and_mute () =
  let overload =
    {
      Hive.default_overload_config with
      Hive.quarantine_threshold = 3;
      mute_cooldown = 50.0;
    }
  in
  let sim, hive, pods = overloaded_hive ~n:2 ~overload () in
  let poison_pod, honest_pod = (List.nth pods 0, List.nth pods 1) in
  let k =
    match Hive.knowledge hive ~digest:(Ir.digest Corpus.parser) with
    | Some k -> k
    | None -> Alcotest.fail "knowledge missing"
  in
  let version_before = Exec_tree.version (Knowledge.tree k) in
  let epoch_before = Knowledge.epoch k in
  (* A fuzzing pod hurls garbage: raw bytes, bad tags, an oversize
     frame, and a trace whose lock set exceeds the caps. *)
  let huge_deadlock =
    let w = Codec.Writer.create () in
    Codec.Writer.byte w 0;
    Codec.Writer.bytes w (String.make 8192 '\xAB');
    Codec.Writer.contents w
  in
  List.iter (Transport.send poison_pod)
    [ "\xff\xff\xff"; "garbage"; huge_deadlock; "\x02"; String.make 200 '\x00' ];
  Sim.run ~until:5.0 sim;
  let stats = Hive.stats hive in
  checkb "poison quarantined" true (stats.Hive.quarantined_frames >= 3);
  checki "offender muted" 1 stats.Hive.pods_muted;
  checkb "post-mute frames dropped unexamined" true (stats.Hive.muted_drops >= 1);
  checki "knowledge tree untouched" version_before (Exec_tree.version (Knowledge.tree k));
  checki "knowledge epoch untouched" epoch_before (Knowledge.epoch k);
  checki "no poison reached ingestion" 0 stats.Hive.traces_received;
  (* The honest pod's uploads still land while the offender is muted. *)
  Transport.send honest_pod (upload (failure_trace ()));
  Sim.run ~until:10.0 sim;
  checki "honest upload ingested" 1 (Hive.stats hive).Hive.traces_received;
  (* After the cooldown the offender is readmitted. *)
  Sim.schedule sim ~delay:60.0 (fun () -> Transport.send poison_pod (upload (success_trace ())));
  Sim.run sim;
  checki "offender readmitted after cooldown" 2 (Hive.stats hive).Hive.traces_received

(* The default config admits through the same controller with instant
   service: caps, quarantine and muting hold without any overload
   config. *)
let default_hive () =
  let sim = Sim.create () in
  let hive = Hive.create ~config:(Hive.default_config Hive.Full) ~sim () in
  ignore (Hive.register_program hive Corpus.parser);
  hive

let test_default_config_caps () =
  let hive = default_hive () in
  let trace = success_trace () in
  let bits = Bitvec.create () in
  for _ = 0 to Wire.default_caps.Wire.max_branch_bits do
    Bitvec.push bits false
  done;
  Hive.inject hive ~slot:0 (upload { trace with Trace.bits });
  let stats = Hive.stats hive in
  checki "over-cap frame quarantined" 1 stats.Hive.quarantined_frames;
  checki "over-cap frame not ingested" 0 stats.Hive.traces_received;
  Hive.inject hive ~slot:0 (upload trace);
  checki "honest frame ingested at once" 1 (Hive.stats hive).Hive.traces_received

let test_default_config_mutes () =
  let hive = default_hive () in
  for _ = 1 to Hive.default_overload_config.Hive.quarantine_threshold do
    Hive.inject hive ~slot:3 "garbage"
  done;
  let stats = Hive.stats hive in
  checki "threshold garbage frames quarantined"
    Hive.default_overload_config.Hive.quarantine_threshold stats.Hive.quarantined_frames;
  checki "offending slot muted" 1 stats.Hive.pods_muted;
  Hive.inject hive ~slot:3 (upload (success_trace ()));
  checki "muted slot dropped" 1 (Hive.stats hive).Hive.muted_drops;
  Hive.inject hive ~slot:4 (upload (success_trace ()));
  checki "other slots still admitted" 1 (Hive.stats hive).Hive.traces_received

(* ---- Platform integration --------------------------------------------- *)

let quick_config ?mode program =
  let config = Scenario.single_program ?mode program in
  {
    config with
    Platform.n_pods = 3;
    duration = 120.0;
    sample_interval = 30.0;
    pod_config =
      {
        config.Platform.pod_config with
        Pod.arrival_rate = 1.0;
        workload = Workload.Uniform_inputs { lo = 0; hi = 40 };
      };
  }

let test_pressure_zero_byte_identity () =
  (* An explicit overload config that is never pressured (instant
     service, so the queue never forms) renders the same report as the
     default config.  Every hive admits through one path and [None]
     means instant service, so this holds by construction; the test
     guards that equivalence. *)
  let baseline =
    Format.asprintf "%a" Platform.pp_report (Platform.run (quick_config Corpus.parser))
  in
  let overload = { Hive.default_overload_config with Hive.service_interval = 0.0 } in
  let guarded =
    Format.asprintf "%a" Platform.pp_report
      (Platform.run (Scenario.with_overload ~overload (quick_config Corpus.parser)))
  in
  checkb "report not empty" true (String.length baseline > 0);
  Alcotest.(check string) "pressure-0 report byte-identical" baseline guarded

let test_overload_spike_recovers () =
  (* An arrival spike ≥4× nominal: 12 extra pods join a 3-pod fleet.
     The queue must respect its bound, shedding must be success-only,
     pods must thin their uploads under pressure, and pressure must be
     back to 0 by the end of the run. *)
  let overload =
    {
      Hive.default_overload_config with
      Hive.queue_bound = 32;
      service_interval = 0.2;
    }
  in
  let config =
    Scenario.overload_spike ~spike_pods:12 ~spike_start:30.0 ~spike_end:75.0
      (Scenario.with_overload ~overload (quick_config Corpus.parser))
  in
  let report = Platform.run config in
  let h = report.Platform.hive_stats in
  checkb "queue bounded" true (h.Hive.peak_queue_depth <= 32);
  checkb "spike saturated the queue" true (h.Hive.peak_queue_depth = 32);
  checkb "successes shed under the spike" true (h.Hive.shed_success > 0);
  checki "no failure-class upload shed" 0 h.Hive.shed_failure;
  checkb "pressure was signalled" true (h.Hive.pressure_updates_sent > 0);
  let f = report.Platform.final in
  checkb "pods thinned uploads under pressure" true (f.Metrics.thinned_uploads > 0);
  checkb "uploads deferred with backoff" true
    (List.exists (fun m -> m.Pod.deferred_uploads > 0) report.Platform.pod_metrics);
  (* Recovery: the base pods (first three in the fleet) heard the hive
     come back down to level 0 after the spike pods left. *)
  let base_pods =
    List.filteri (fun i _ -> i < 3) report.Platform.pod_metrics
  in
  List.iter (fun m -> checki "pressure recovered to 0" 0 m.Pod.pressure) base_pods;
  (* The spike never broke ingestion: traces still reached knowledge. *)
  checkb "hive kept ingesting" true (h.Hive.traces_received > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_overload"
    [
      ( "config validation",
        [
          Alcotest.test_case "link configs" `Quick test_link_config_validation;
          Alcotest.test_case "transport configs" `Quick test_transport_config_validation;
        ] );
      ( "dead letter",
        [
          Alcotest.test_case "callback under total loss" `Quick test_dead_letter_callback;
          Alcotest.test_case "resend after heal" `Quick test_dead_letter_resend_after_heal;
        ] );
      ( "decode caps",
        [
          Alcotest.test_case "oversize frames" `Quick test_caps_reject_oversize;
          Alcotest.test_case "branch bits" `Quick test_caps_reject_branch_bits;
          Alcotest.test_case "lock events" `Quick test_caps_reject_lock_events;
        ] );
      ( "fuzz",
        [
          q fuzz_wire_mutation; q fuzz_wire_truncation; q fuzz_checkpoint_mutation;
          q fuzz_protocol_garbage;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue bound" `Quick test_queue_never_exceeds_bound;
          Alcotest.test_case "prefer failures" `Quick test_prefer_failures_sheds_successes_first;
          Alcotest.test_case "drop policies" `Quick test_drop_policies;
          Alcotest.test_case "quarantine and mute" `Quick test_poison_quarantine_and_mute;
          Alcotest.test_case "default config caps" `Quick test_default_config_caps;
          Alcotest.test_case "default config mutes" `Quick test_default_config_mutes;
        ] );
      ( "platform",
        [
          Alcotest.test_case "pressure-0 byte identity" `Quick test_pressure_zero_byte_identity;
          Alcotest.test_case "overload spike recovers" `Quick test_overload_spike_recovers;
        ] );
    ]
