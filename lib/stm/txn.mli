(** Transactions: descriptors, barriers with capture analysis, nesting.

    The STM is in-place-update with eager write locking and optimistic
    invisible reads (Intel C++ STM / McRT style, paper §2.1):

    - a read barrier logs the orec version it observed and is validated at
      commit (plus periodically, as a zombie guard);
    - a write barrier acquires the orec eagerly, undo-logs the old value
      (unless the write-after-write filter has seen the address) and
      stores in place;
    - conflicts abort the requester with exponential backoff.

    Every barrier first runs the capture analysis configured in
    {!Config.t} (paper Figure 2): accesses proven captured go straight to
    memory.  Closed nesting supports partial abort: a nested scope
    checkpoints the undo log, allocation log and stack mark, and capture
    questions are answered relative to the innermost scope, so
    outer-transaction-local data is still undo-logged inside a child
    (paper §2.2.1). *)

module Memory = Captured_tmem.Memory
module Site = Captured_core.Site

exception Retry_conflict
(** Internal conflict signal; escapes only if raised outside a
    transaction. *)

exception User_abort
(** Raised by {!abort}; propagates out of {!atomic} after rollback. *)

type thread
(** Per-logical-thread context: stack, arena, stats, private log, RNG and
    the platform (native or simulated). *)

type tx
(** An active transaction (one per thread, reused across attempts). *)

val create_thread :
  tid:int ->
  platform:Captured_sim.Platform.t ->
  memory:Memory.t ->
  stack:Captured_tmem.Tstack.t ->
  arena:Captured_tmem.Alloc.t ->
  orecs:Orec.t ->
  config:Config.t ->
  ?cm_shared:Cm.shared ->
  ?wal:Wal.t ->
  ?reclaim_shared:Reclaim.shared ->
  seed:int ->
  unit ->
  thread
(** [cm_shared] links this thread's contention manager to its world's
    ticket source; omitted, the thread gets a private one (fine for
    single-thread use).  [wal] attaches the world's write-ahead log
    device; it only takes effect when [config.durable] is set.
    [reclaim_shared] links this thread into the world's epoch-based
    reclamation state (announcement slot = [tid]); it only takes effect
    when [config.ebr] is set. *)

(** {2 Atomic blocks} *)

(** [atomic th f] runs [f tx] with single-lock-atomicity semantics,
    retrying on conflict.  Called inside a transaction it opens a nested
    scope with partial-abort support. *)
val atomic : thread -> (tx -> 'a) -> 'a

(** [abort tx] — user abort: rolls back the innermost atomic scope and
    raises {!User_abort} from its [atomic]. *)
val abort : tx -> 'a

(** [restart tx] — abort the whole transaction and retry it (STAMP's
    [TM_RESTART]). *)
val restart : tx -> 'a

val in_txn : thread -> bool
val depth : tx -> int

(** {2 Barriers} *)

(** [read ?site tx addr] — transactional load.  [site] identifies the
    static access site (defaults to the anonymous catch-all). *)
val read : ?site:Site.id -> tx -> Memory.addr -> int

val write : ?site:Site.id -> tx -> Memory.addr -> int -> unit

(** {2 Transactional allocation} *)

(** [alloc tx n] — transaction-safe malloc: freed automatically if the
    transaction aborts, logged for capture analysis. *)
val alloc : tx -> int -> Memory.addr

(** [free tx addr] — transaction-safe free: immediate for blocks this
    scope allocated, deferred to commit otherwise. *)
val free : tx -> Memory.addr -> unit

(** [alloca tx n] — stack allocation inside the transaction (captured). *)
val alloca : tx -> int -> Memory.addr

val stack_save : tx -> Captured_tmem.Tstack.frame
val stack_restore : tx -> Captured_tmem.Tstack.frame -> unit

(** {2 Annotation API (paper Figure 7)} *)

val add_private_block : thread -> addr:Memory.addr -> size:int -> unit
val remove_private_block : thread -> addr:Memory.addr -> size:int -> unit

(** {2 Privatization ([Config.ebr])}

    The quiescence fence the reclamation layer provides: after
    {!quiesce} returns, every transaction attempt that was in flight
    when it was called has finished, so state a committed transaction
    detached beforehand can be accessed non-transactionally.  Without
    [+ebr] there is no epoch to wait on and both calls degrade to the
    (unsafe) pre-EBR behaviour — a no-op fence. *)

val quiesce : thread -> unit
(** Block (spinning through scheduling points) until the global epoch
    has advanced two grace periods past its value at entry.  Raises
    [Invalid_argument] if called inside a transaction — waiting on
    peers while holding reads is a deadlock by construction. *)

val privatize : thread -> addr:Memory.addr -> size:int -> unit
(** [privatize th ~addr ~size] — {!quiesce}, then annotate the block
    private ({!add_private_block}), after which raw access is safe:
    no in-flight reader survives the fence, and later transactions
    elide (and so never version-check) the privatized range. *)

(** {2 Plain (non-transactional) code} *)

val raw_read : thread -> Memory.addr -> int
val raw_write : thread -> Memory.addr -> int -> unit
val raw_alloc : thread -> int -> Memory.addr
val raw_free : thread -> Memory.addr -> unit

(** [work th c] charges [c] virtual cycles of pure computation (no-op on
    the native platform). *)
val work : thread -> int -> unit

(** [yield_hint th] lets other logical threads run (spin loops must call
    it so simulator fibers make progress). *)
val yield_hint : thread -> unit

(** [tx_work tx c] — as [work], from inside a transaction. *)
val tx_work : tx -> int -> unit

(** {2 Introspection} *)

val validate : tx -> bool

(** {2 Event tracing}

    Hook for the schedule-exploration checker ({!Captured_check}): when a
    tracer is installed, every barrier, allocation and transaction
    boundary reports an event carrying the value it moved.  The default is
    [None] and costs one ref load per barrier. *)

(** How the barrier treated the access: fully instrumented, or elided by
    one of the capture-analysis verdicts (paper Figure 2). *)
type access_class =
  | Instrumented
  | Elided_static
  | Elided_stack
  | Elided_heap
  | Elided_private

type event =
  | Ev_begin of { attempt : int }  (** top-level (re)start *)
  | Ev_read of { addr : int; value : int; cls : access_class }
  | Ev_write of { addr : int; value : int; cls : access_class }
  | Ev_alloc of { addr : int; size : int }
  | Ev_alloca of { addr : int; size : int }
  | Ev_free of { addr : int }
  | Ev_scope_begin  (** nested scope opened *)
  | Ev_scope_commit
  | Ev_scope_abort  (** nested scope rolled back (partial abort) *)
  | Ev_commit  (** top-level commit completed (locks released) *)
  | Ev_abort of { user : bool }  (** top-level rollback completed *)
  | Ev_raw_write of { addr : int; value : int }
      (** non-transactional store *)

(** [set_tracer (Some f)] routes every event to [f tid event]; [None]
    restores the free default.  Global — one tracer at a time. *)
val set_tracer : (int -> event -> unit) option -> unit
val thread_stats : thread -> Stats.t
val thread_wal : thread -> Wal.t option
val thread_id : thread -> int
val thread_config : thread -> Config.t
val thread_memory : thread -> Memory.t
val thread_arena : thread -> Captured_tmem.Alloc.t
val thread_stack : thread -> Captured_tmem.Tstack.t
val thread_prng : thread -> Captured_util.Prng.t
