(** One-time [Ir] → flat bytecode compilation, behind a digest-keyed
    cache.

    The tree-walk interpreter pays for boxed expression nodes and
    string-keyed variable lookups on every single step; pods run
    millions of steps, so executions/sec is the traffic multiplier for
    the whole hive.  Compiling once per program removes all of that
    from the hot path: each thread body becomes one [int array] of
    int-coded opcodes with inline operands, variables are resolved at
    compile time to dense integer slots (globals by declaration order,
    locals by first occurrence per thread), pure-constant subtrees are
    folded, and [Const]-operand binops collapse into superinstructions
    so the common [x < 10] shape is a single fetch.

    Compilation preserves tree-walk semantics exactly — see {!Vm} for
    the dispatch loop and DESIGN.md §10 for the opcode table and the
    equivalence argument.  In particular, folding never evaluates a
    division or modulo whose divisor is constant zero (the runtime
    crash must survive), and a branch whose condition folds to a
    constant still records its path decision. *)

module Ir := Softborg_prog.Ir

(** {1 Compiled form} *)

type thread_code = {
  code : int array;  (** Opcode stream: int-coded ops with inline operands. *)
  entry : int array;
      (** [entry.(pc)] is the code offset of source instruction [pc];
          length is body length + 1, the last slot addressing the
          end-of-body op (a valid branch target in the IR). *)
  n_locals : int;  (** Dense local slots used by this thread. *)
}

type t = {
  source_digest : string;  (** {!Ir.digest} of the compiled program. *)
  threads : thread_code array;
  messages : string array;  (** Assert messages, indexed by operand. *)
  n_globals : int;
  n_locks : int;
  n_inputs : int;
  max_stack : int;  (** Worst-case operand-stack depth of any statement. *)
  n_instrs : int;  (** Source IR instructions compiled. *)
  n_ops : int;  (** Total bytecode words emitted across threads. *)
}

val compile : Ir.t -> t
(** Compile without touching any cache. *)

(** {1 Compile cache}

    Pods keep re-executing the same registered program, and a hive
    process hosts many pods; compiling is ~1000× the cost of one
    execution step, so compilations are memoized process-wide.  The
    cache is keyed by {!Ir.digest} and fronted by a small
    physical-equality ring so steady-state lookups (same program value
    every execution) skip even the digest.  The ring is read without
    the lock — from any domain, with no allocation — and the lock is
    taken only on a ring miss. *)

type cache

val create_cache : ?fast_slots:int -> unit -> cache
(** Fresh cache. [fast_slots] (default 64) sizes the physical-equality
    fast path. *)

val shared_cache : cache
(** Process-wide default cache, safe across domains. *)

val find_or_compile : cache -> Ir.t -> t
(** Memoized {!compile}.  Structurally equal programs share one
    compiled value, and distinct programs can never conflate (digest
    collisions aside). *)

type cache_stats = {
  hits : int;  (** Digest-keyed lookups that found an entry. *)
  fast_hits : int;  (** Lookups served by the physical-equality ring. *)
  misses : int;  (** Lookups that compiled. *)
  entries : int;  (** Distinct programs cached. *)
}

val cache_stats : cache -> cache_stats

(** {1 Opcodes}

    Exposed for the VM dispatch loop and for tests; see DESIGN.md §10
    for the full table.  Operand slots for syscall destinations and
    crash-fallback targets use a signed encoding: local slot [s] is
    [s >= 0], global slot [g] is [lnot g]. *)

val op_push_const : int
val op_push_local : int
val op_push_global : int
val op_push_input : int
val op_neg : int
val op_not : int
val op_add : int
val op_sub : int
val op_mul : int
val op_div : int
val op_mod : int
val op_eq : int
val op_ne : int
val op_lt : int
val op_le : int
val op_gt : int
val op_ge : int
val op_and : int
val op_or : int
val op_addc : int
val op_subc : int
val op_mulc : int
val op_divc : int
val op_modc : int
val op_eqc : int
val op_nec : int
val op_ltc : int
val op_lec : int
val op_gtc : int
val op_gec : int
val op_andc : int
val op_orc : int
val op_store_local : int
val op_store_global : int
val op_store_local_const : int
val op_store_global_const : int
val op_br : int
val op_br_const : int
val op_jmp : int
val op_sys : int
val op_lock : int
val op_unlock : int
val op_assert : int
val op_assert_fail : int
val op_nop_end : int
val op_halt : int
val op_eob : int

val syscall_kind_code : Ir.syscall_kind -> int
val syscall_kind_of_code : int -> Ir.syscall_kind
(** @raise Invalid_argument on an unknown code. *)

(** Crash-context codes carried by crash-capable ops (generic division
    and modulo): [ctx_branch] propagates without consulting the crash
    hook, [ctx_assert] is suppressible with no fallback effect,
    [ctx_assign] is suppressible with a zero-write fallback to the
    carried slot. *)

val ctx_branch : int
val ctx_assert : int
val ctx_assign : int
