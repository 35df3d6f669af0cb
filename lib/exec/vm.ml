module Bitvec = Softborg_util.Bitvec
module Ir = Softborg_prog.Ir
module B = Bytecode

(* The dispatch loop matches opcode literals (a dense int match
   compiles to a jump table); tie every literal to its named constant
   so the table in bytecode.ml stays the single source of truth. *)
let () =
  assert (
    B.op_push_const = 0 && B.op_push_local = 1 && B.op_push_global = 2 && B.op_push_input = 3
    && B.op_neg = 4 && B.op_not = 5 && B.op_add = 6 && B.op_sub = 7 && B.op_mul = 8
    && B.op_div = 9 && B.op_mod = 10 && B.op_eq = 11 && B.op_ne = 12 && B.op_lt = 13
    && B.op_le = 14 && B.op_gt = 15 && B.op_ge = 16 && B.op_and = 17 && B.op_or = 18
    && B.op_addc = 19 && B.op_subc = 20 && B.op_mulc = 21 && B.op_divc = 22 && B.op_modc = 23
    && B.op_eqc = 24 && B.op_nec = 25 && B.op_ltc = 26 && B.op_lec = 27 && B.op_gtc = 28
    && B.op_gec = 29 && B.op_andc = 30 && B.op_orc = 31 && B.op_store_local = 32
    && B.op_store_global = 33 && B.op_store_local_const = 34 && B.op_store_global_const = 35
    && B.op_br = 36 && B.op_br_const = 37 && B.op_jmp = 38 && B.op_sys = 39 && B.op_lock = 40
    && B.op_unlock = 41 && B.op_assert = 42 && B.op_assert_fail = 43 && B.op_nop_end = 44
    && B.op_halt = 45 && B.op_eob = 46 && B.ctx_branch = 0 && B.ctx_assert = 1
    && B.ctx_assign = 2)

exception Vm_crash of Outcome.crash_kind * string * int  (* source pc *)

type mode =
  | Record of Env.t
  | Replay of { bits : Bitvec.t; mutable bit_pos : int }

(* Values are (int, taint-bit) pairs split across parallel arrays; a
   value is known iff the run records or the taint bit is clear (the
   tree walk's [tainted <=> None] replay invariant, flattened).  The
   by-product accumulators are packed int buffers borrowed from the
   domain's {!buffers} for the length of the run — the dispatch loop
   itself allocates nothing in the minor heap. *)
type machine = {
  prog : B.t;
  mode : mode;
  is_replay : bool;
  hooks : Interp.hooks;
  ips : int array;  (* per-thread bytecode offset of the current statement *)
  status : int array;  (* 0 runnable, 1 finished, lock+2 blocked *)
  stack_v : int array;
  stack_t : Bytes.t;
  locals_v : int array array;
  locals_t : Bytes.t array;
  globals_v : int array;
  globals_t : Bytes.t;
  lock_owner : int array;  (* -1 = unowned *)
  runnable : int array;  (* scratch prefix for the scheduler *)
  mutable finished : int;
  mutable steps : int;
  mutable deferred : int;
  mutable suppressed : int;
  out_bits : Bitvec.t;
  bufs : buffers;  (* where [release] hands the (possibly grown) arrays back *)
  (* decisions packed as (pc lsl 16) lor (thread lsl 1) lor taken *)
  mutable dec : int array;
  mutable n_dec : int;
  mutable sys_kind : int array;
  mutable sys_val : int array;
  mutable n_sys : int;
  (* lock events, stride 2: (lock lsl 17) lor (thread lsl 1) lor tag, step *)
  mutable lev : int array;
  mutable n_lev : int;
}

(* Grow-only by-product arrays, one set per domain.  A run borrows
   them (resetting only the machine's counts: nothing past a count is
   ever read) and hands them back, grown or not, when it ends, so a
   steady stream of runs allocates no by-product storage at all.  The
   initial 512/1024 words are past Max_young_wosize, so the first set
   and every doubling land directly on the major heap.  [busy] marks a
   set on loan: a run started while it is out — a hook that runs the
   VM again — gets a private set instead.  Only the owning domain
   touches its set and no VM code runs on systhreads, so the
   check-and-set in [make_machine] needs no atomic. *)
and buffers = {
  mutable busy : bool;
  mutable b_dec : int array;
  mutable b_sys_kind : int array;
  mutable b_sys_val : int array;
  mutable b_lev : int array;
}

let new_buffers () =
  {
    busy = false;
    b_dec = Array.make 512 0;
    b_sys_kind = Array.make 512 0;
    b_sys_val = Array.make 512 0;
    b_lev = Array.make 1024 0;
  }

let domain_buffers = Domain.DLS.new_key new_buffers

let make_machine ~prog ~mode ~hooks =
  let n_threads = Array.length prog.B.threads in
  let bufs =
    let own = Domain.DLS.get domain_buffers in
    if own.busy then new_buffers () else own
  in
  bufs.busy <- true;
  {
    prog;
    mode;
    is_replay = (match mode with Record _ -> false | Replay _ -> true);
    hooks;
    ips = Array.make n_threads 0;
    status = Array.make n_threads 0;
    stack_v = Array.make (max 1 prog.B.max_stack) 0;
    stack_t = Bytes.make (max 1 prog.B.max_stack) '\000';
    locals_v = Array.init n_threads (fun i -> Array.make (max 1 prog.B.threads.(i).B.n_locals) 0);
    locals_t = Array.init n_threads (fun i -> Bytes.make (max 1 prog.B.threads.(i).B.n_locals) '\000');
    globals_v = Array.make (max 1 prog.B.n_globals) 0;
    globals_t = Bytes.make (max 1 prog.B.n_globals) '\000';
    lock_owner = Array.make (max 1 prog.B.n_locks) (-1);
    runnable = Array.make n_threads 0;
    finished = 0;
    steps = 0;
    deferred = 0;
    suppressed = 0;
    out_bits = Bitvec.create ();
    bufs;
    dec = bufs.b_dec;
    n_dec = 0;
    sys_kind = bufs.b_sys_kind;
    sys_val = bufs.b_sys_val;
    n_sys = 0;
    lev = bufs.b_lev;
    n_lev = 0;
  }

(* Hand the by-product arrays back; the machine must not be read
   after this.  Every exit of a run goes through here — including
   [Vm_crash], a replay error and an exception raised by a hook —
   or the domain's set would stay on loan and every later run would
   allocate a private one. *)
let release m =
  let b = m.bufs in
  b.b_dec <- m.dec;
  b.b_sys_kind <- m.sys_kind;
  b.b_sys_val <- m.sys_val;
  b.b_lev <- m.lev;
  b.busy <- false

(* Run [f m] and release [m] however [f] exits. *)
let with_machine m f =
  match f m with
  | r ->
    release m;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release m;
    Printexc.raise_with_backtrace e bt

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_decision m ~pc ~thread ~taken =
  if m.n_dec = Array.length m.dec then m.dec <- grow m.dec;
  Array.unsafe_set m.dec m.n_dec ((pc lsl 16) lor (thread lsl 1) lor (if taken then 1 else 0));
  m.n_dec <- m.n_dec + 1

let push_syscall m ~kind ~value =
  if m.n_sys = Array.length m.sys_kind then begin
    m.sys_kind <- grow m.sys_kind;
    m.sys_val <- grow m.sys_val
  end;
  m.sys_kind.(m.n_sys) <- kind;
  m.sys_val.(m.n_sys) <- value;
  m.n_sys <- m.n_sys + 1

let push_lock_event m ~acquired ~thread ~lock =
  if 2 * m.n_lev = Array.length m.lev then m.lev <- grow m.lev;
  m.lev.(2 * m.n_lev) <- (lock lsl 17) lor (thread lsl 1) lor (if acquired then 1 else 0);
  m.lev.((2 * m.n_lev) + 1) <- m.steps;
  m.n_lev <- m.n_lev + 1

(* Signed-slot write used by syscall destinations and the suppressed-
   assignment fallback: local slot [s >= 0], global [lnot g]. *)
let write_signed_slot m thread slot v taint =
  if slot >= 0 then begin
    m.locals_v.(thread).(slot) <- v;
    Bytes.unsafe_set m.locals_t.(thread) slot (if taint then '\001' else '\000')
  end
  else begin
    let g = lnot slot in
    m.globals_v.(g) <- v;
    Bytes.unsafe_set m.globals_t g (if taint then '\001' else '\000')
  end

(* A crash inside a statement: branch-condition context propagates
   without consulting the hook (matching the tree walk); assert and
   assignment contexts are suppressible, an assignment additionally
   zeroing its target.  On suppression the thread resumes at the next
   source instruction. *)
let crash_in_context m thread tc ~src ~ctx ~slot kind message =
  if ctx = 0 then raise (Vm_crash (kind, message, src))
  else
    match m.hooks.Interp.on_crash ~site:{ Ir.thread; pc = src } ~kind with
    | `Propagate -> raise (Vm_crash (kind, message, src))
    | `Suppress ->
      m.suppressed <- m.suppressed + 1;
      if ctx = 2 then write_signed_slot m thread slot 0 false;
      m.ips.(thread) <- tc.B.entry.(src + 1)

exception Replay_error_local of string

let[@inline always] tainted st i = Bytes.unsafe_get st i <> '\000'

(* Execute exactly one source statement of [thread] (a run of stack
   micro-ops ending in a control op).  Mirrors [Interp.step] case by
   case; raises [Vm_crash] on a propagated crash and
   [Interp.Replay_error] when replay bits run dry. *)
let exec m thread =
  let tc = Array.unsafe_get m.prog.B.threads thread in
  let code = tc.B.code in
  let lv = Array.unsafe_get m.locals_v thread in
  let lt = Array.unsafe_get m.locals_t thread in
  let gv = m.globals_v in
  let gt = m.globals_t in
  let sv = m.stack_v in
  let st = m.stack_t in
  let is_replay = m.is_replay in
  let ip = ref (Array.unsafe_get m.ips thread) in
  let sp = ref 0 in
  let running = ref true in
  (* [next >= 0] ends the statement, resuming the thread there.  All
     four refs stay uncaptured so the compiler unboxes them — a helper
     closure here would box [running] and cost minor words on every
     dispatched instruction. *)
  let next = ref (-1) in
  while !next < 0 && !running do
    let op = Array.unsafe_get code !ip in
    match op with
    | 0 (* PUSH_CONST c *) ->
      Array.unsafe_set sv !sp (Array.unsafe_get code (!ip + 1));
      Bytes.unsafe_set st !sp '\000';
      sp := !sp + 1;
      ip := !ip + 2
    | 1 (* PUSH_LOCAL s *) ->
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set sv !sp (Array.unsafe_get lv s);
      Bytes.unsafe_set st !sp (Bytes.unsafe_get lt s);
      sp := !sp + 1;
      ip := !ip + 2
    | 2 (* PUSH_GLOBAL s *) ->
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set sv !sp (Array.unsafe_get gv s);
      Bytes.unsafe_set st !sp (Bytes.unsafe_get gt s);
      sp := !sp + 1;
      ip := !ip + 2
    | 3 (* PUSH_INPUT i *) ->
      let i = Array.unsafe_get code (!ip + 1) in
      let v = match m.mode with Record env -> Env.input env i | Replay _ -> 0 in
      Array.unsafe_set sv !sp v;
      Bytes.unsafe_set st !sp '\001';
      sp := !sp + 1;
      ip := !ip + 2
    | 4 (* NEG *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then Array.unsafe_set sv i (-Array.unsafe_get sv i);
      ip := !ip + 1
    | 5 (* NOT *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i <> 0 then 0 else 1);
      ip := !ip + 1
    | 6 (* ADD *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (Array.unsafe_get sv i + Array.unsafe_get sv !sp);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 7 (* SUB *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (Array.unsafe_get sv i - Array.unsafe_get sv !sp);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 8 (* MUL *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (Array.unsafe_get sv i * Array.unsafe_get sv !sp);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 9 (* DIV src ctx slot *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then begin
        let y = Array.unsafe_get sv !sp in
        if y = 0 then begin
          crash_in_context m thread tc ~src:code.(!ip + 1) ~ctx:code.(!ip + 2)
            ~slot:code.(!ip + 3) Outcome.Division_by_zero "division by zero";
          running := false
        end
        else begin
          Array.unsafe_set sv i (Array.unsafe_get sv i / y);
          if tainted st !sp then Bytes.unsafe_set st i '\001';
          ip := !ip + 4
        end
      end
      else begin
        if tainted st !sp then Bytes.unsafe_set st i '\001';
        ip := !ip + 4
      end
    | 10 (* MOD src ctx slot *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then begin
        let y = Array.unsafe_get sv !sp in
        if y = 0 then begin
          crash_in_context m thread tc ~src:code.(!ip + 1) ~ctx:code.(!ip + 2)
            ~slot:code.(!ip + 3) Outcome.Division_by_zero "modulo by zero";
          running := false
        end
        else begin
          Array.unsafe_set sv i (Array.unsafe_get sv i mod y);
          if tainted st !sp then Bytes.unsafe_set st i '\001';
          ip := !ip + 4
        end
      end
      else begin
        if tainted st !sp then Bytes.unsafe_set st i '\001';
        ip := !ip + 4
      end
    | 11 (* EQ *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i = Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 12 (* NE *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i <> Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 13 (* LT *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i < Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 14 (* LE *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i <= Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 15 (* GT *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i > Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 16 (* GE *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i >= Array.unsafe_get sv !sp then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 17 (* AND *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <> 0 && Array.unsafe_get sv !sp <> 0 then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 18 (* OR *) ->
      sp := !sp - 1;
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i || tainted st !sp) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <> 0 || Array.unsafe_get sv !sp <> 0 then 1 else 0);
      if tainted st !sp then Bytes.unsafe_set st i '\001';
      ip := !ip + 1
    | 19 (* ADDC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (Array.unsafe_get sv i + Array.unsafe_get code (!ip + 1));
      ip := !ip + 2
    | 20 (* SUBC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (Array.unsafe_get sv i - Array.unsafe_get code (!ip + 1));
      ip := !ip + 2
    | 21 (* MULC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (Array.unsafe_get sv i * Array.unsafe_get code (!ip + 1));
      ip := !ip + 2
    | 22 (* DIVC c, c <> 0 *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (Array.unsafe_get sv i / Array.unsafe_get code (!ip + 1));
      ip := !ip + 2
    | 23 (* MODC c, c <> 0 *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (Array.unsafe_get sv i mod Array.unsafe_get code (!ip + 1));
      ip := !ip + 2
    | 24 (* EQC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i = Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 25 (* NEC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <> Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 26 (* LTC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i < Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 27 (* LEC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <= Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 28 (* GTC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i (if Array.unsafe_get sv i > Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 29 (* GEC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i >= Array.unsafe_get code (!ip + 1) then 1 else 0);
      ip := !ip + 2
    | 30 (* ANDC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <> 0 && Array.unsafe_get code (!ip + 1) <> 0 then 1 else 0);
      ip := !ip + 2
    | 31 (* ORC c *) ->
      let i = !sp - 1 in
      if (not is_replay) || not (tainted st i) then
        Array.unsafe_set sv i
          (if Array.unsafe_get sv i <> 0 || Array.unsafe_get code (!ip + 1) <> 0 then 1 else 0);
      ip := !ip + 2
    | 32 (* STORE_LOCAL s *) ->
      sp := !sp - 1;
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set lv s (Array.unsafe_get sv !sp);
      Bytes.unsafe_set lt s (Bytes.unsafe_get st !sp);
      next := !ip + 2
    | 33 (* STORE_GLOBAL s *) ->
      sp := !sp - 1;
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set gv s (Array.unsafe_get sv !sp);
      Bytes.unsafe_set gt s (Bytes.unsafe_get st !sp);
      next := !ip + 2
    | 34 (* STORE_LOCAL_CONST s c *) ->
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set lv s (Array.unsafe_get code (!ip + 2));
      Bytes.unsafe_set lt s '\000';
      next := !ip + 3
    | 35 (* STORE_GLOBAL_CONST s c *) ->
      let s = Array.unsafe_get code (!ip + 1) in
      Array.unsafe_set gv s (Array.unsafe_get code (!ip + 2));
      Bytes.unsafe_set gt s '\000';
      next := !ip + 3
    | 36 (* BR src t_off f_off *) ->
      sp := !sp - 1;
      let src = Array.unsafe_get code (!ip + 1) in
      let taken =
        if not (tainted st !sp) then Array.unsafe_get sv !sp <> 0
        else begin
          match m.mode with
          | Record _ ->
            let b = Array.unsafe_get sv !sp <> 0 in
            Bitvec.push m.out_bits b;
            b
          | Replay r ->
            if r.bit_pos >= Bitvec.length r.bits then
              raise (Replay_error_local "trace bits exhausted at input-dependent branch")
            else begin
              let b = Bitvec.get r.bits r.bit_pos in
              r.bit_pos <- r.bit_pos + 1;
              b
            end
        end
      in
      push_decision m ~pc:src ~thread ~taken;
      next := Array.unsafe_get code (!ip + if taken then 2 else 3)
    | 37 (* BR_CONST src taken target *) ->
      (* Condition folded at compile time; the decision is still part
         of the recorded path, exactly as the tree walk records it. *)
      let src = Array.unsafe_get code (!ip + 1) in
      let taken = Array.unsafe_get code (!ip + 2) <> 0 in
      push_decision m ~pc:src ~thread ~taken;
      next := Array.unsafe_get code (!ip + 3)
    | 38 (* JMP target *) -> next := Array.unsafe_get code (!ip + 1)
    | 39 (* SYS kind slot *) ->
      let kind = Array.unsafe_get code (!ip + 1) in
      let slot = Array.unsafe_get code (!ip + 2) in
      (match m.mode with
      | Record env ->
        let concrete = Env.syscall env (B.syscall_kind_of_code kind) in
        push_syscall m ~kind ~value:concrete;
        write_signed_slot m thread slot concrete true
      | Replay _ -> write_signed_slot m thread slot 0 true);
      next := !ip + 3
    | 40 (* LOCK l *) ->
      let lock = Array.unsafe_get code (!ip + 1) in
      if m.lock_owner.(lock) >= 0 then begin
        (* Held by anyone — including this thread: self-deadlock. *)
        m.status.(thread) <- lock + 2;
        running := false
      end
      else begin
        let holding = ref [] in
        for l = Array.length m.lock_owner - 1 downto 0 do
          if m.lock_owner.(l) = thread then holding := l :: !holding
        done;
        let owner l = if m.lock_owner.(l) >= 0 then Some m.lock_owner.(l) else None in
        match m.hooks.Interp.on_lock_request ~thread ~lock ~holding:!holding ~owner with
        | `Defer ->
          (* Spin: stay runnable at the same statement and retry. *)
          m.deferred <- m.deferred + 1;
          running := false
        | `Proceed ->
          m.lock_owner.(lock) <- thread;
          push_lock_event m ~acquired:true ~thread ~lock;
          next := !ip + 2
      end
    | 41 (* UNLOCK l *) ->
      let lock = Array.unsafe_get code (!ip + 1) in
      if m.lock_owner.(lock) = thread then begin
        m.lock_owner.(lock) <- -1;
        push_lock_event m ~acquired:false ~thread ~lock
      end;
      next := !ip + 2
    | 42 (* ASSERT src msg *) ->
      sp := !sp - 1;
      let known = (not is_replay) || not (tainted st !sp) in
      if known && Array.unsafe_get sv !sp = 0 then begin
        crash_in_context m thread tc ~src:code.(!ip + 1) ~ctx:1 ~slot:0 Outcome.Assertion_failure
          m.prog.B.messages.(Array.unsafe_get code (!ip + 2));
        running := false
      end
      else next := !ip + 3
    | 43 (* ASSERT_FAIL src msg *) ->
      crash_in_context m thread tc ~src:code.(!ip + 1) ~ctx:1 ~slot:0 Outcome.Assertion_failure
        m.prog.B.messages.(Array.unsafe_get code (!ip + 2));
      running := false
    | 44 (* NOP_END *) -> next := !ip + 1
    | 45 (* HALT *) | 46 (* EOB *) ->
      m.status.(thread) <- 1;
      m.finished <- m.finished + 1;
      running := false
    | _ -> assert false
  done;
  if !next >= 0 then m.ips.(thread) <- !next

(* Runnable threads into the scratch prefix, ascending; waking any
   blocked thread whose lock has freed (it then re-runs its Lock). *)
let runnable_scan m =
  let n = ref 0 in
  let status = m.status in
  for thread = 0 to Array.length status - 1 do
    let s = Array.unsafe_get status thread in
    if s = 0 then begin
      m.runnable.(!n) <- thread;
      incr n
    end
    else if s >= 2 && m.lock_owner.(s - 2) < 0 then begin
      status.(thread) <- 0;
      m.runnable.(!n) <- thread;
      incr n
    end
  done;
  !n

let waiting_pairs m =
  let pairs = ref [] in
  for thread = Array.length m.status - 1 downto 0 do
    let s = m.status.(thread) in
    if s >= 2 then pairs := (thread, s - 2) :: !pairs
  done;
  !pairs

(* ---- Materializing by-products ------------------------------------ *)

let decisions_list m =
  let rec go i acc =
    if i < 0 then acc
    else
      let packed = m.dec.(i) in
      go (i - 1)
        (({ Ir.thread = (packed lsr 1) land 0x7fff; pc = packed lsr 16 }, packed land 1 = 1) :: acc)
  in
  go (m.n_dec - 1) []

let syscalls_list m =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ((B.syscall_kind_of_code m.sys_kind.(i), m.sys_val.(i)) :: acc)
  in
  go (m.n_sys - 1) []

let lock_events_list m =
  let rec go i acc =
    if i < 0 then acc
    else
      let packed = m.lev.(2 * i) and step = m.lev.((2 * i) + 1) in
      let thread = (packed lsr 1) land 0xffff and lock = packed lsr 17 in
      let event =
        if packed land 1 = 1 then Interp.Acquired { thread; lock; step }
        else Interp.Released { thread; lock; step }
      in
      go (i - 1) (event :: acc)
  in
  go (m.n_lev - 1) []

(* ---- Drivers ------------------------------------------------------- *)

let execute ?(max_steps = 20_000) ?(hooks = Interp.no_hooks) ?(cache = B.shared_cache) ~program
    ~env ~sched () =
  let prog = B.find_or_compile cache program in
  let scheduler = Sched.create sched in
  with_machine (make_machine ~prog ~mode:(Record env) ~hooks) (fun m ->
      let n_threads = Array.length m.status in
      let rec loop () =
        if m.finished = n_threads then Outcome.Success
        else if m.steps >= max_steps then Outcome.Hang
        else
          let n = runnable_scan m in
          if n = 0 then Outcome.Deadlock { waiting = waiting_pairs m }
          else begin
            let thread = Sched.choose_prefix scheduler ~buf:m.runnable ~n in
            m.steps <- m.steps + 1;
            match exec m thread with
            | () -> loop ()
            | exception Vm_crash (kind, message, pc) ->
              Outcome.Crash { site = { Ir.thread; pc }; kind; message }
          end
      in
      let outcome = loop () in
      {
        Interp.outcome;
        bits = m.out_bits;
        full_path = decisions_list m;
        schedule = Sched.record scheduler;
        syscalls = syscalls_list m;
        lock_events = lock_events_list m;
        steps = m.steps;
        deferred_acquisitions = m.deferred;
        suppressed_crashes = m.suppressed;
      })

let reconstruct ?(hooks = Interp.no_hooks) ?(cache = B.shared_cache) ~program ~bits ~schedule
    ~total_decisions ~total_steps () =
  let prog = B.find_or_compile cache program in
  let scheduler = Sched.create (Sched.Replay schedule) in
  with_machine (make_machine ~prog ~mode:(Replay { bits; bit_pos = 0 }) ~hooks) (fun m ->
      let n_threads = Array.length m.status in
      let rec loop () =
        if m.steps >= total_steps then Ok ()
        else if m.finished = n_threads then Ok ()
        else
          let n = runnable_scan m in
          if n = 0 then Ok () (* deadlocked execution: path ends here *)
          else begin
            let thread = Sched.choose_prefix scheduler ~buf:m.runnable ~n in
            m.steps <- m.steps + 1;
            match exec m thread with
            | () -> loop ()
            | exception Vm_crash _ -> Ok () (* concrete crash on a deterministic path *)
            | exception Replay_error_local msg ->
              (* Bits running dry on the recorded crash step is the normal
                 end of a trace cut short while evaluating a branch. *)
              if m.n_dec = total_decisions && m.steps >= total_steps then Ok () else Error msg
          end
      in
      match loop () with
      | Ok () ->
        if m.n_dec <> total_decisions then
          Error
            (Printf.sprintf "reconstructed %d decisions, trace recorded %d" m.n_dec
               total_decisions)
        else Ok { Interp.decisions = decisions_list m; locks = lock_events_list m }
      | Error msg -> Error msg)
