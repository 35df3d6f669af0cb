(** Concrete test-case generation for execution guidance (paper §3.3).

    The hive "produces specific test cases to guide execution, stated
    in terms of inputs or in terms of system call faults to be
    injected".  This module turns a symbolic model (symbol values from
    {!Sym_exec.direction_feasible}) into exactly that: an input vector
    plus a targeted fault plan a pod can execute. *)

module Ir := Softborg_prog.Ir
module Env := Softborg_exec.Env

type test_case = {
  inputs : int array;  (** One value per program input slot. *)
  fault_plan : Env.fault_plan;
      (** [Targeted] indices of syscalls (in execution order) whose
          model value was negative — the only aspect of a syscall a
          pod can force. *)
}

val of_model :
  n_inputs:int -> model:int array -> origins:Sym_exec.sym_origin array -> test_case
(** Project a symbol model onto the executable test surface. *)

val of_direction :
  Ir.t -> Sym_exec.direction_verdict -> [ `Test of test_case | `Infeasible | `Unknown ]
(** Project a direction verdict: a model becomes a test case. *)

val for_direction :
  ?config:Sym_exec.config ->
  ?cache:Softborg_solver.Verdict_cache.t ->
  Ir.t ->
  site:Ir.site ->
  direction:bool ->
  [ `Test of test_case | `Infeasible | `Unknown ]
(** End-to-end: find inputs (and faults) that drive an execution to
    take branch [site] in [direction], or certify that none exist in
    the domain (single-threaded programs only). *)
