module Ir = Softborg_prog.Ir
module Env = Softborg_exec.Env

type test_case = {
  inputs : int array;
  fault_plan : Env.fault_plan;
}

let of_model ~n_inputs ~model ~origins =
  let inputs = Array.make n_inputs 0 in
  let faults = ref [] in
  Array.iteri
    (fun sym origin ->
      let value = if sym < Array.length model then model.(sym) else 0 in
      match origin with
      | Sym_exec.From_input i -> if i < n_inputs then inputs.(i) <- value
      | Sym_exec.From_syscall { occurrence; _ } ->
        if value < 0 then faults := occurrence :: !faults
      | Sym_exec.From_global _ -> ())
    origins;
  let fault_plan =
    match List.sort_uniq Int.compare !faults with
    | [] -> Env.No_faults
    | indices -> Env.Targeted indices
  in
  { inputs; fault_plan }

let of_direction program = function
  | Sym_exec.Feasible { model; origins } ->
    `Test (of_model ~n_inputs:program.Ir.n_inputs ~model ~origins)
  | Sym_exec.Infeasible -> `Infeasible
  | Sym_exec.Unknown -> `Unknown

let for_direction ?config ?cache program ~site ~direction =
  of_direction program (Sym_exec.direction_feasible ?config ?cache program ~site ~direction)
