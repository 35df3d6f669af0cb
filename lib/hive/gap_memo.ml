module Ir = Softborg_prog.Ir
module Sym_exec = Softborg_symexec.Sym_exec
module Testgen = Softborg_symexec.Testgen

type verdict =
  [ `Test of Testgen.test_case
  | `Infeasible
  | `Unknown
  ]

type t = {
  table : (Ir.site * bool, verdict) Hashtbl.t;
  mutable explored : (Sym_exec.config * Sym_exec.table) list;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 64; explored = []; hits = 0; misses = 0 }

let exploration t ?(config = Sym_exec.default_config) ?cache program =
  match List.assoc_opt config t.explored with
  | Some table -> table
  | None ->
    let table = Sym_exec.explore_table ~config ?cache program in
    t.explored <- (config, table) :: t.explored;
    table

let report t ?config ?cache program = Sym_exec.table_report (exploration t ?config ?cache program)

let verdict t ?config ?cache program ~site ~direction =
  match Hashtbl.find_opt t.table (site, direction) with
  | Some verdict ->
    t.hits <- t.hits + 1;
    verdict
  | None ->
    t.misses <- t.misses + 1;
    let verdict =
      Testgen.of_direction program
        (Sym_exec.table_direction (exploration t ?config ?cache program) ~site ~direction)
    in
    Hashtbl.replace t.table (site, direction) verdict;
    verdict

let add t ~site ~direction verdict = Hashtbl.replace t.table (site, direction) verdict

let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
