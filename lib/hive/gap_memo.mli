(** Symbolic gap verdicts, answered from one exploration per program.

    Whether a branch direction is reachable is a pure function of the
    program and the symexec configuration: it does not depend on which
    tree node exposed the gap, nor on the deployed fix set (fixes are
    runtime hooks; the analyzed program never changes).  So a memo
    explores its program once per configuration
    ({!Sym_exec.explore_table}, built lazily on first use) and answers
    every gap verdict, input-guard search and assert-safety check from
    that table for the life of the knowledge base — it is never
    cleared.  A pair table in front of it remembers each verdict
    handed out and counts hits and misses.

    One memo serves one program; the planner, the prover and fix
    synthesis share it, each passing the same symexec configuration
    (the hive's [config.symexec_config]).  Like the replay cache it is
    a pure accelerator: never serialized into checkpoints, restarts
    cold. *)

module Ir := Softborg_prog.Ir
module Sym_exec := Softborg_symexec.Sym_exec
module Testgen := Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]
(** Exactly {!Testgen.for_direction}'s result. *)

type t

val create : unit -> t

val verdict :
  t ->
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  Ir.t ->
  site:Ir.site ->
  direction:bool ->
  verdict
(** The verdict {!Testgen.for_direction} would return, read from the
    pair table (a hit) or else from the program's exploration table (a
    miss, remembered).  [cache] is handed to the exploration when it is
    built. *)

val report :
  t -> ?config:Sym_exec.config -> ?cache:Softborg_solver.Verdict_cache.t -> Ir.t -> Sym_exec.report
(** The program's [Strict] {!Sym_exec.explore} report, from the same
    table; leaves the hit/miss counters alone. *)

val add : t -> site:Ir.site -> direction:bool -> verdict -> unit
(** Prefill the pair table; {!verdict} then returns this entry. *)

val length : t -> int
val hits : t -> int
val misses : t -> int
