(** Allocation-free bytecode execution.

    Drop-in replacement for the tree-walk {!Interp}: same record/replay
    semantics — taint tracking, branch-bit emission/consumption, crash
    hooks and suppression, syscall summaries, lock events, and the
    decision-count stop — but dispatching {!Bytecode} int opcodes over
    dense slot arrays.  After the per-run setup, the dispatch loop
    allocates no minor words per iteration: values live in
    preallocated int arrays, taint in bytes, and trace by-products
    accumulate into packed int buffers.  Those buffers are kept per
    domain and reused from run to run (grow-only, counts reset at the
    start of a run), so a warm run allocates only its small per-thread
    slot arrays and the result it returns — no by-product storage and
    nothing on the major heap.  That matters because pods share a
    process with racing solver domains, and OCaml 5 minor collections
    stop every domain.  A run started while the domain's buffers are on
    loan (a hook that runs the VM again) gets private ones; every exit
    of a run, an exception raised by a hook included, hands them back.

    Equivalence with {!Interp} is a tested property (identical
    {!Outcome.t}, bits, decisions, syscall summaries, lock events, and
    replay errors over the generator corpus); the argument is spelled
    out in DESIGN.md §10. *)

module Bitvec := Softborg_util.Bitvec
module Ir := Softborg_prog.Ir

val execute :
  ?max_steps:int ->
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  program:Ir.t ->
  env:Env.t ->
  sched:Sched.policy ->
  unit ->
  Interp.result
(** Bytecode counterpart of {!Interp.run}; identical defaults
    ([max_steps] 20_000, no hooks) and identical results.  The program
    is compiled through [cache] (default {!Bytecode.shared_cache}). *)

val reconstruct :
  ?hooks:Interp.hooks ->
  ?cache:Bytecode.cache ->
  program:Ir.t ->
  bits:Bitvec.t ->
  schedule:int list ->
  total_decisions:int ->
  total_steps:int ->
  unit ->
  (Interp.reconstruction, string) result
(** Bytecode counterpart of {!Interp.reconstruct}: replays a recorded
    trace, reconstructing the full decision sequence and lock events,
    with the same error behavior on truncated or over-long bit
    vectors. *)
