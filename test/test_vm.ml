(* Bytecode VM ≡ tree-walk interpreter: the VM must be a drop-in
   engine, so every observable by-product — outcome, branch bits,
   decisions, schedule, syscall summaries, lock events, counters — must
   be identical in both record and replay mode, hooks included. *)

module Ir = Softborg_prog.Ir
module Build = Softborg_prog.Build
module Corpus = Softborg_prog.Corpus
module Generator = Softborg_prog.Generator
module Rng = Softborg_util.Rng
module Bitvec = Softborg_util.Bitvec
module Env = Softborg_exec.Env
module Sched = Softborg_exec.Sched
module Interp = Softborg_exec.Interp
module Vm = Softborg_exec.Vm
module Bytecode = Softborg_exec.Bytecode
module Engine = Softborg_exec.Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---- Result comparison -------------------------------------------- *)

let outcome_str o = Format.asprintf "%a" Softborg_exec.Outcome.pp o

let result_equal (a : Interp.result) (b : Interp.result) =
  a.Interp.outcome = b.Interp.outcome
  && Bitvec.equal a.Interp.bits b.Interp.bits
  && a.Interp.full_path = b.Interp.full_path
  && a.Interp.schedule = b.Interp.schedule
  && a.Interp.syscalls = b.Interp.syscalls
  && a.Interp.lock_events = b.Interp.lock_events
  && a.Interp.steps = b.Interp.steps
  && a.Interp.deferred_acquisitions = b.Interp.deferred_acquisitions
  && a.Interp.suppressed_crashes = b.Interp.suppressed_crashes

let explain_mismatch (tree : Interp.result) (vm : Interp.result) =
  let b field = Printf.sprintf "%s differ" field in
  if tree.Interp.outcome <> vm.Interp.outcome then
    Printf.sprintf "outcome: tree=%s vm=%s" (outcome_str tree.Interp.outcome)
      (outcome_str vm.Interp.outcome)
  else if not (Bitvec.equal tree.Interp.bits vm.Interp.bits) then b "bits"
  else if tree.Interp.full_path <> vm.Interp.full_path then b "full_path"
  else if tree.Interp.schedule <> vm.Interp.schedule then b "schedule"
  else if tree.Interp.syscalls <> vm.Interp.syscalls then b "syscalls"
  else if tree.Interp.lock_events <> vm.Interp.lock_events then b "lock_events"
  else if tree.Interp.steps <> vm.Interp.steps then
    Printf.sprintf "steps: tree=%d vm=%d" tree.Interp.steps vm.Interp.steps
  else if tree.Interp.deferred_acquisitions <> vm.Interp.deferred_acquisitions then b "deferred"
  else if tree.Interp.suppressed_crashes <> vm.Interp.suppressed_crashes then b "suppressed"
  else "equal"

(* Run both engines from identical (inputs, seed, fault plan, policy).
   Policies carry mutable RNG state, so each engine gets a fresh one
   built by [make_sched]. *)
let run_both ?max_steps ?tree_hooks ?vm_hooks ~program ~make_env ~make_sched () =
  let tree = Interp.run ?max_steps ?hooks:tree_hooks ~program ~env:(make_env ()) ~sched:(make_sched ()) () in
  let vm = Vm.execute ?max_steps ?hooks:vm_hooks ~program ~env:(make_env ()) ~sched:(make_sched ()) () in
  (tree, vm)

let gen_program pseed =
  let bugs =
    match pseed mod 4 with
    | 0 -> []
    | 1 -> [ Generator.Rare_assert; Generator.Div_by_zero ]
    | 2 -> [ Generator.Deadlock_pair ]
    | _ -> [ Generator.Atomicity_race; Generator.Unchecked_syscall ]
  in
  fst (Generator.generate (Rng.create (pseed + 1)) { Generator.default_params with Generator.bugs })

let gen_env prog iseed () =
  let input_rng = Rng.create (iseed + 10_000) in
  let inputs = Array.init prog.Ir.n_inputs (fun _ -> Rng.int_in input_rng (-100) 500) in
  let fault_plan = if iseed mod 3 = 0 then Env.Random_faults 0.2 else Env.No_faults in
  Env.make ~fault_plan ~seed:(iseed + 5) ~inputs ()

(* ---- Corpus unit tests -------------------------------------------- *)

let test_corpus_equivalence () =
  List.iter
    (fun (name, prog) ->
      for iseed = 0 to 5 do
        let tree, vm =
          run_both ~program:prog ~make_env:(gen_env prog iseed)
            ~make_sched:(fun () -> Sched.Random_sched (Rng.create (iseed + 3)))
            ()
        in
        checks (Printf.sprintf "%s seed %d" name iseed) "equal" (explain_mismatch tree vm)
      done)
    Corpus.all

let test_round_robin_equivalence () =
  List.iter
    (fun (name, prog) ->
      let tree, vm =
        run_both ~program:prog ~make_env:(gen_env prog 1) ~make_sched:(fun () -> Sched.Round_robin) ()
      in
      checks (name ^ " rr") "equal" (explain_mismatch tree vm))
    Corpus.all

(* Constant folding must not change observable semantics: folded
   branches still record decisions, constant-false asserts still crash
   through the hook, and division by a constant zero still crashes at
   runtime. *)
let test_folded_program_equivalence () =
  let open Build in
  let open Build.Infix in
  let prog =
    program ~name:"folded" ~globals:[ "g" ] ~n_inputs:1
      [
        [
          if_ (const 2 *: const 3 >: const 5)
            [ assign (lvar "x") (const 10 /: const 2) ]
            [ assign (lvar "x") (const 0) ];
          if_ (local "x" +: input 0 >: const 4)
            [ assign (gvar "g") (local "x" %: const 0) ]  (* mod by const 0: dynamic crash *)
            [ assign (gvar "g") (const 1) ];
          assert_ (const 1 ==: const 2) "constant-false assert";
        ];
      ]
  in
  for iseed = 0 to 8 do
    let make_env () = Env.make ~seed:iseed ~inputs:[| iseed - 4 |] () in
    let tree, vm =
      run_both ~program:prog ~make_env ~make_sched:(fun () -> Sched.Round_robin) ()
    in
    checks (Printf.sprintf "folded seed %d" iseed) "equal" (explain_mismatch tree vm)
  done

(* ---- Hook equivalence --------------------------------------------- *)

let defer_hooks () =
  (* Defer the first two lock acquisitions, suppress every crash:
     exercises the deferred/suppressed counters and the suppression
     fallbacks on both engines.  Stateful, so each engine needs its own
     instance. *)
  let deferred = ref 0 in
  {
    Interp.on_lock_request =
      (fun ~thread:_ ~lock:_ ~holding:_ ~owner:_ ->
        if !deferred < 2 then begin
          incr deferred;
          `Defer
        end
        else `Proceed);
    on_crash = (fun ~site:_ ~kind:_ -> `Suppress);
  }

let test_hooks_equivalence () =
  for pseed = 0 to 11 do
    let prog = gen_program pseed in
    let tree, vm =
      run_both ~max_steps:3000 ~tree_hooks:(defer_hooks ()) ~vm_hooks:(defer_hooks ())
        ~program:prog ~make_env:(gen_env prog pseed)
        ~make_sched:(fun () -> Sched.Random_sched (Rng.create (pseed + 77)))
        ()
    in
    checks (Printf.sprintf "hooks pseed %d" pseed) "equal" (explain_mismatch tree vm)
  done

(* ---- Record-mode property over the generator corpus --------------- *)

let prop_vm_equals_tree_record =
  QCheck.Test.make ~name:"vm = tree-walk (record mode, random programs)" ~count:150
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog = gen_program pseed in
      let tree, vm =
        run_both ~max_steps:3000 ~program:prog ~make_env:(gen_env prog iseed)
          ~make_sched:(fun () -> Sched.Random_sched (Rng.create (sseed + 77)))
          ()
      in
      result_equal tree vm || QCheck.Test.fail_reportf "mismatch: %s" (explain_mismatch tree vm))

(* ---- Replay parity ------------------------------------------------ *)

let reconstruction_equal (a : Interp.reconstruction) (b : Interp.reconstruction) =
  a.Interp.decisions = b.Interp.decisions && a.Interp.locks = b.Interp.locks

let prop_vm_replay_parity =
  QCheck.Test.make ~name:"vm reconstruct = tree reconstruct (incl. cross-engine)" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog = gen_program pseed in
      let r =
        Interp.run ~max_steps:3000 ~program:prog ~env:(gen_env prog iseed ())
          ~sched:(Sched.Random_sched (Rng.create (sseed + 77)))
          ()
      in
      let reconstruct f =
        f ~program:prog ~bits:r.Interp.bits ~schedule:r.Interp.schedule
          ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ()
      in
      match (reconstruct (Interp.reconstruct ?hooks:None), reconstruct (Vm.reconstruct ?hooks:None ?cache:None)) with
      | Ok t, Ok v ->
        (reconstruction_equal t v
        && t.Interp.decisions = r.Interp.full_path
        && v.Interp.locks = r.Interp.lock_events)
        || QCheck.Test.fail_reportf "replay divergence"
      | Error te, Error ve ->
        te = ve || QCheck.Test.fail_reportf "different errors: tree=%s vm=%s" te ve
      | Ok _, Error e -> QCheck.Test.fail_reportf "tree ok, vm error: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "vm ok, tree error: %s" e)

let prop_vm_replay_error_parity =
  QCheck.Test.make ~name:"truncated/exhausted bit vectors fail identically" ~count:120
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pseed, iseed, sseed) ->
      let prog = gen_program pseed in
      let r =
        Interp.run ~max_steps:3000 ~program:prog ~env:(gen_env prog iseed ())
          ~sched:(Sched.Random_sched (Rng.create (sseed + 177)))
          ()
      in
      let mutate_bits =
        (* Truncate when possible, otherwise claim one decision too
           many: both corruptions must fail (or pass) identically. *)
        let n = Bitvec.length r.Interp.bits in
        if n > 0 then begin
          let bits = Bitvec.copy r.Interp.bits in
          Bitvec.truncate bits (n - 1);
          bits
        end
        else r.Interp.bits
      in
      let total_decisions = List.length r.Interp.full_path + if Bitvec.length r.Interp.bits = 0 then 1 else 0 in
      let reconstruct f =
        f ~program:prog ~bits:mutate_bits ~schedule:r.Interp.schedule ~total_decisions
          ~total_steps:r.Interp.steps ()
      in
      match (reconstruct (Interp.reconstruct ?hooks:None), reconstruct (Vm.reconstruct ?hooks:None ?cache:None)) with
      | Ok t, Ok v -> reconstruction_equal t v
      | Error te, Error ve ->
        te = ve || QCheck.Test.fail_reportf "different errors: tree=%s vm=%s" te ve
      | Ok _, Error e -> QCheck.Test.fail_reportf "tree ok, vm error: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "vm ok, tree error: %s" e)

(* ---- Compile cache ------------------------------------------------ *)

let test_cache_memoizes () =
  let cache = Bytecode.create_cache () in
  let prog = Corpus.parser in
  let c1 = Bytecode.find_or_compile cache prog in
  let c2 = Bytecode.find_or_compile cache prog in
  checkb "physically shared" true (c1 == c2);
  let stats = Bytecode.cache_stats cache in
  checki "one miss" 1 stats.Bytecode.misses;
  checki "fast hit" 1 stats.Bytecode.fast_hits;
  checki "one entry" 1 stats.Bytecode.entries;
  (* A structurally equal rebuild digests the same, so it shares the
     compiled value through the digest path. *)
  let rebuilt = { prog with Ir.name = prog.Ir.name } in
  let c3 = Bytecode.find_or_compile cache rebuilt in
  checkb "digest hit shares" true (c1 == c3);
  checki "still one entry" 1 (Bytecode.cache_stats cache).Bytecode.entries

let test_cache_distinguishes_corpus () =
  let cache = Bytecode.create_cache ~fast_slots:2 () in
  let compiled = List.map (fun (_, p) -> (p, Bytecode.find_or_compile cache p)) Corpus.all in
  checki "entry per program" (List.length Corpus.all) (Bytecode.cache_stats cache).Bytecode.entries;
  List.iter
    (fun (p, c) ->
      checks "digest key" (Ir.digest p) c.Bytecode.source_digest;
      checkb "stable on relookup" true (Bytecode.find_or_compile cache p == c))
    compiled

(* ---- Engine selection --------------------------------------------- *)

let test_engine_round_trip () =
  checks "vm" "vm" (Engine.to_string Engine.Vm);
  checks "tree" "tree" (Engine.to_string Engine.Tree);
  checkb "parse vm" true (Engine.of_string "vm" = Some Engine.Vm);
  checkb "parse tree" true (Engine.of_string "tree" = Some Engine.Tree);
  checkb "reject junk" true (Engine.of_string "jit" = None)

let test_engine_dispatch_equal () =
  let prog = Corpus.fig2_write in
  let make_env () = Env.make ~seed:3 ~inputs:(Array.make prog.Ir.n_inputs 7) () in
  let run engine = Engine.run ~engine ~program:prog ~env:(make_env ()) ~sched:Sched.Round_robin () in
  checks "engines agree" "equal" (explain_mismatch (run Engine.Tree) (run Engine.Vm))

(* ---- Per-domain buffer reuse -------------------------------------- *)

(* Words allocated by this domain so far: minor plus those allocated
   directly on the major heap (promotions are not new allocation).
   [Gc.counters]'s minor count lags until the next minor collection,
   so the minor words come from [Gc.minor_words]. *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Warm up, then the mean words allocated per call of [f]. *)
let words_per_call ?(warm = 3) ?(calls = 50) f =
  for _ = 1 to warm do
    ignore (Sys.opaque_identity (f ()))
  done;
  let w0 = words_allocated () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (words_allocated () -. w0) /. float_of_int calls

(* Words one warm run may allocate: its per-thread slot arrays, the
   scheduler and the result lists.  Measured at 145–1,020 words per
   execute and 126–1,000 per reconstruct over the corpus (the most on
   checksum, whose ~100 decisions become a list); a run that allocated
   its by-product buffers afresh would add 2k–6k words of major heap. *)
let words_per_run_bound = 2_000.

(* Enough decisions (> 512), syscalls (> 512) and lock events (> 512)
   in one run to grow every reused buffer; [crash] appends a
   constant-false assert, which crashes in record and replay alike. *)
let heavy_program ~crash =
  let open Build in
  let open Build.Infix in
  program
    ~name:(if crash then "heavy-crash" else "heavy")
    ~globals:[ "g" ] ~n_inputs:1 ~n_locks:1
    [
      [
        assign (lvar "i") (input 0);
        while_
          (local "i" >: const 0)
          [
            syscall Ir.Sys_read (lvar "r");
            if_
              (local "r" +: local "i" >: const 50)
              [ assign (lvar "acc") (local "acc" +: const 1) ]
              [];
            lock 0;
            assign (gvar "g") (glob "g" +: const 1);
            unlock 0;
            assign (lvar "i") (local "i" -: const 1);
          ];
      ]
      @ (if crash then [ assert_ (const 1 ==: const 2) "heavy done" ] else [])
      @ [ halt ];
    ]

let heavy = heavy_program ~crash:false
let heavy_crash = heavy_program ~crash:true

type observed =
  | Ran of Interp.result
  | Replayed of (Interp.reconstruction, string) result
  | Raised of string

let observed_equal a b =
  match (a, b) with
  | Ran x, Ran y -> result_equal x y
  | Replayed (Ok x), Replayed (Ok y) -> reconstruction_equal x y
  | Replayed (Error x), Replayed (Error y) -> x = y
  | Raised x, Raised y -> x = y
  | _ -> false

let observe f = match f () with o -> o | exception e -> Raised (Printexc.to_string e)

exception Hook_boom

(* One VM call and the same call on the tree walk. *)
type job = { name : string; vm : unit -> observed; tree : unit -> observed }

let buffer_jobs () =
  let env prog n () =
    Env.make ~fault_plan:(Env.Random_faults 0.1) ~seed:n ~inputs:(Array.make prog.Ir.n_inputs n) ()
  in
  let exec_job name ?(hooks = Interp.no_hooks) prog n =
    let go
        (run :
          hooks:Interp.hooks -> program:Ir.t -> env:Env.t -> sched:Sched.policy -> unit ->
          Interp.result) () =
      observe (fun () -> Ran (run ~hooks ~program:prog ~env:(env prog n ()) ~sched:Sched.Round_robin ()))
    in
    {
      name;
      vm = go (fun ~hooks -> Vm.execute ~hooks ?max_steps:None ?cache:None);
      tree = go (fun ~hooks -> Interp.run ~hooks ?max_steps:None);
    }
  in
  let replay_job name ?(hooks = Interp.no_hooks) ?(truncate = false) prog n =
    let r = Interp.run ~program:prog ~env:(env prog n ()) ~sched:Sched.Round_robin () in
    let bits = Bitvec.copy r.Interp.bits in
    if truncate then Bitvec.truncate bits (Bitvec.length bits / 2);
    let go
        (reconstruct :
          ?hooks:Interp.hooks -> program:Ir.t -> bits:Bitvec.t -> schedule:int list ->
          total_decisions:int -> total_steps:int -> unit -> _) () =
      observe (fun () ->
          Replayed
            (reconstruct ~hooks ~program:prog ~bits ~schedule:r.Interp.schedule
               ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ()))
    in
    { name; vm = go (Vm.reconstruct ?cache:None); tree = go Interp.reconstruct }
  in
  let raising =
    { Interp.no_hooks with Interp.on_crash = (fun ~site:_ ~kind:_ -> raise Hook_boom) }
  in
  (* The outer run crashes at its end, where the hook runs the VM again
     on another input while the outer run holds the domain's buffers;
     the inner run's decisions are appended to the outer result, so
     both runs are compared. *)
  let reentrant_job =
    let inner = ref None in
    let go run_inner run_outer () =
      inner := None;
      let on_crash ~site:_ ~kind:_ =
        inner := Some (run_inner ());
        `Propagate
      in
      match observe (fun () -> Ran (run_outer { Interp.no_hooks with Interp.on_crash })) with
      | Ran r ->
        let i = Option.get !inner in
        Ran { r with Interp.full_path = r.Interp.full_path @ i.Interp.full_path }
      | o -> o
    in
    let outer_env = env heavy_crash 600 and inner_env = env heavy 900 in
    let sched = Sched.Round_robin in
    {
      name = "re-entrant on_crash";
      vm =
        go
          (fun () -> Vm.execute ~program:heavy ~env:(inner_env ()) ~sched ())
          (fun hooks -> Vm.execute ~hooks ~program:heavy_crash ~env:(outer_env ()) ~sched ());
      tree =
        go
          (fun () -> Interp.run ~program:heavy ~env:(inner_env ()) ~sched ())
          (fun hooks -> Interp.run ~hooks ~program:heavy_crash ~env:(outer_env ()) ~sched ());
    }
  in
  [
    exec_job "heavy execute" heavy 700;
    exec_job "parser execute" Corpus.parser 3;
    exec_job "checksum execute" Corpus.checksum 5;
    exec_job "heavy crash" heavy_crash 650;
    replay_job "heavy replay" heavy 700;
    exec_job "bank execute" Corpus.bank_transfer 2;
    replay_job "truncated heavy replay" ~truncate:true heavy 700;
    replay_job "parser replay" Corpus.parser 3;
    exec_job "raising hook" ~hooks:raising heavy_crash 620;
    replay_job "raising hook replay" ~hooks:raising heavy_crash 610;
    replay_job "truncated parser replay" ~truncate:true Corpus.parser 4;
    reentrant_job;
    exec_job "worker-pool execute" Corpus.worker_pool 1;
    replay_job "heavy crash replay" heavy_crash 640;
  ]

(* Each result of the reused buffers must equal the tree walk's and
   the same run on a domain whose buffers were never used — whatever
   ran before it, long or short, crashed, failed, raised or re-entered.
   The reference domains are spawned and joined one at a time. *)
let test_buffer_reuse_leaks_nothing () =
  let jobs = buffer_jobs () in
  let fresh = List.map (fun j -> (j.name, Domain.join (Domain.spawn j.vm))) jobs in
  let check j =
    let got = j.vm () in
    checkb (j.name ^ " = tree walk") true (observed_equal got (j.tree ()));
    checkb (j.name ^ " = fresh domain") true (observed_equal got (List.assoc j.name fresh));
    (* The domain's buffers are back: a warm run allocates no
       by-product storage. *)
    let w =
      words_per_call ~warm:1 ~calls:5 (fun () ->
          Vm.execute ~program:Corpus.parser ~env:(Env.make ~seed:1 ~inputs:[| 1; 2; 3 |] ())
            ~sched:Sched.Round_robin ())
    in
    if w > words_per_run_bound then Alcotest.failf "after %s: %.0f words per warm run" j.name w
  in
  List.iter check jobs;
  List.iter check (List.rev jobs);
  (* Every job again, each right after the run that grows the buffers
     most. *)
  List.iter
    (fun j ->
      check (List.hd jobs);
      check j)
    jobs;
  checkb "raising hook raised" true
    (List.exists (fun (_, o) -> match o with Raised _ -> true | _ -> false) fresh);
  checkb "a replay failed" true
    (List.exists (fun (_, o) -> match o with Replayed (Error _) -> true | _ -> false) fresh)

(* Two domains at once through one compile cache: each domain's results
   equal the serial ones, and the ring's lock-free hits plus the locked
   path's hits and misses account for every lookup. *)
let test_two_domains_one_cache () =
  let programs = ("heavy", heavy) :: Corpus.all in
  let run_corpus cache =
    List.concat_map
      (fun (_, prog) ->
        List.concat_map
          (fun n ->
            let env = Env.make ~seed:n ~inputs:(Array.make prog.Ir.n_inputs (n * 97 mod 600)) () in
            let sched = Sched.Random_sched (Rng.create n) in
            let r = Vm.execute ~cache ~program:prog ~env ~sched () in
            let replay =
              Vm.reconstruct ~cache ~program:prog ~bits:r.Interp.bits ~schedule:r.Interp.schedule
                ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ()
            in
            [ Ran r; Replayed replay ])
          (List.init 6 Fun.id))
      programs
  in
  let serial = run_corpus (Bytecode.create_cache ()) in
  let lookups_per_pass = 2 * 6 * List.length programs in
  let passes = 10 in
  let cache = Bytecode.create_cache () in
  let work () = List.init passes (fun _ -> run_corpus cache) in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  List.iteri
    (fun d results ->
      List.iter
        (fun pass ->
          checkb (Printf.sprintf "domain %d = serial" d) true
            (List.for_all2 observed_equal serial pass))
        results)
    [ Domain.join d1; Domain.join d2 ];
  let s = Bytecode.cache_stats cache in
  checki "every lookup counted" (2 * passes * lookups_per_pass)
    (s.Bytecode.hits + s.Bytecode.fast_hits + s.Bytecode.misses);
  checki "one compile per program" (List.length programs) s.Bytecode.misses;
  checki "one entry per program" (List.length programs) s.Bytecode.entries

(* A warm run allocates no by-product storage: each corpus program's
   execute and reconstruct stay under a fixed bound of words per call. *)
let test_allocation_bound () =
  List.iter
    (fun (name, prog) ->
      let env () = Env.make ~seed:7 ~inputs:(Array.make prog.Ir.n_inputs 42) () in
      let r = Vm.execute ~program:prog ~env:(env ()) ~sched:Sched.Round_robin () in
      let exec = words_per_call (fun () -> Vm.execute ~program:prog ~env:(env ()) ~sched:Sched.Round_robin ()) in
      let replay =
        words_per_call (fun () ->
            Vm.reconstruct ~program:prog ~bits:r.Interp.bits ~schedule:r.Interp.schedule
              ~total_decisions:(List.length r.Interp.full_path) ~total_steps:r.Interp.steps ())
      in
      if exec > words_per_run_bound || replay > words_per_run_bound then
        Alcotest.failf "%s: %.0f words/execute, %.0f words/reconstruct (bound %.0f)" name exec replay
          words_per_run_bound)
    Corpus.all

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "softborg_vm"
    [
      ( "equivalence",
        [
          Alcotest.test_case "corpus random scheds" `Quick test_corpus_equivalence;
          Alcotest.test_case "corpus round robin" `Quick test_round_robin_equivalence;
          Alcotest.test_case "constant folding" `Quick test_folded_program_equivalence;
          Alcotest.test_case "hooks" `Quick test_hooks_equivalence;
          q prop_vm_equals_tree_record;
        ] );
      ( "replay",
        [
          q prop_vm_replay_parity;
          q prop_vm_replay_error_parity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes" `Quick test_cache_memoizes;
          Alcotest.test_case "distinguishes corpus" `Quick test_cache_distinguishes_corpus;
          Alcotest.test_case "two domains one cache" `Quick test_two_domains_one_cache;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "reuse leaks nothing" `Quick test_buffer_reuse_leaks_nothing;
          Alcotest.test_case "allocation bound" `Quick test_allocation_bound;
        ] );
      ( "engine",
        [
          Alcotest.test_case "string round trip" `Quick test_engine_round_trip;
          Alcotest.test_case "dispatch equal" `Quick test_engine_dispatch_equal;
        ] );
    ]
