(* Layer probes: plain calibrated timing loops over the public functions
   of one layer at a time.  No per-sample GC stabilisation — a forced
   major collection per sample over a large heap costs far more than the
   operation being timed.  Every probe also checks its own answer, so a
   probe that goes fast by going wrong is caught. *)

module Config = Captured_stm.Config
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Wal = Captured_stm.Wal
module Alloc_log = Captured_core.Alloc_log
module Alloc = Captured_tmem.Alloc
module Memory = Captured_tmem.Memory

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Shortest batch worth timing: far above the clock's resolution. *)
let min_batch_ns = 200_000

(* [per_op ~budget_ns ~ops f] — median ns per operation, where one call
   of [f] performs [ops] operations.  The batch size doubles until one
   batch lasts [min_batch_ns]; batches are then timed until the budget is
   spent (at least five).  [fresh] runs untimed before each batch. *)
let per_op ?(fresh = ignore) ~budget_ns ~ops f =
  let batch k =
    fresh ();
    let t0 = now_ns () in
    for _ = 1 to k do
      f ()
    done;
    now_ns () - t0
  in
  let rec calibrate k =
    if k >= 1 lsl 24 || batch k >= min_batch_ns then k else calibrate (2 * k)
  in
  let k = calibrate 1 in
  let stop = now_ns () + budget_ns in
  let rec loop acc n =
    if n >= 5 && now_ns () >= stop then acc
    else
      let dt = batch k in
      loop ((float_of_int dt /. float_of_int (k * ops)) :: acc) (n + 1)
  in
  Summary.median (loop [] 0)

type result = { name : string; ns : float; ok : bool }

(* Accesses per probe transaction: per-access figures divide the
   transaction's time, begin and commit included, by this. *)
let accesses = 64

(* Barrier probes on the workload's own configuration.  The probe thread
   is bound to a fresh one-thread world with no log device attached, so
   durable configurations measure the barriers without WAL appends
   ([wal] below times those on their own). *)
let txn config ~budget_ns =
  let w = Engine.create ~nthreads:1 config in
  let cells = Alloc.alloc (Engine.global_arena w) accesses in
  let th = Engine.setup_thread w in
  let expected = ref 0 in
  for k = 0 to accesses - 1 do
    Txn.raw_write th (cells + k) (k + 1);
    expected := !expected + k + 1
  done;
  let ok = ref true in
  let empty = per_op ~budget_ns ~ops:1 (fun () -> Txn.atomic th ignore) in
  let shared_read =
    per_op ~budget_ns ~ops:accesses (fun () ->
        let s =
          Txn.atomic th (fun tx ->
              let s = ref 0 in
              for k = 0 to accesses - 1 do
                s := !s + Txn.read tx (cells + k)
              done;
              !s)
        in
        if s <> !expected then ok := false)
  in
  let stamp = ref 0 in
  let shared_write =
    per_op ~budget_ns ~ops:accesses (fun () ->
        incr stamp;
        Txn.atomic th (fun tx ->
            for k = 0 to accesses - 1 do
              Txn.write tx (cells + k) !stamp
            done))
  in
  for k = 0 to accesses - 1 do
    if Txn.raw_read th (cells + k) <> !stamp then ok := false
  done;
  let captured_write =
    per_op ~budget_ns ~ops:accesses (fun () ->
        Txn.atomic th (fun tx ->
            let b = Txn.alloc tx accesses in
            for k = 0 to accesses - 1 do
              Txn.write tx (b + k) k
            done;
            if Txn.read tx (b + accesses - 1) <> accesses - 1 then ok := false;
            Txn.free tx b))
  in
  let ok = !ok in
  [
    { name = "txn.empty_ns"; ns = empty; ok };
    { name = "txn.shared_read_ns"; ns = shared_read; ok };
    { name = "txn.shared_write_ns"; ns = shared_write; ok };
    { name = "txn.captured_write_ns"; ns = captured_write; ok };
  ]

(* Allocation-log probes on the precise tree backend (no fast path, so
   every probe reaches the backend): eight logged blocks, one probe
   inside the fourth and one in the gap after it. *)
let core ~budget_ns =
  let log = Alloc_log.create Alloc_log.Tree in
  for i = 0 to 7 do
    let lo = 1000 + (i * 100) in
    ignore (Alloc_log.add log ~lo ~hi:(lo + 50) : Alloc_log.added)
  done;
  let probe ~lo expect =
    let ok = ref true in
    let ns =
      per_op ~budget_ns ~ops:1 (fun () ->
          if Alloc_log.probe log ~lo ~hi:(lo + 1) <> expect then ok := false)
    in
    (ns, !ok)
  in
  let hit, hit_ok = probe ~lo:1310 Alloc_log.Backend_hit in
  let miss, miss_ok = probe ~lo:1370 Alloc_log.Backend_miss in
  [
    { name = "core.probe_hit_ns"; ns = hit; ok = hit_ok };
    { name = "core.probe_miss_ns"; ns = miss; ok = miss_ok };
  ]

(* One allocate/free pair on a thread arena. *)
let alloc ~budget_ns =
  let mem = Memory.create ~words:(1 lsl 16) in
  let a = Alloc.create mem ~base:1 ~words:((1 lsl 16) - 1) in
  let live = Alloc.live_blocks a in
  let ok = ref true in
  let ns =
    per_op ~budget_ns ~ops:1 (fun () ->
        let b = Alloc.alloc a 4 in
        if Alloc.block_size a b <> 4 then ok := false;
        Alloc.free a b)
  in
  [ { name = "alloc.alloc_free_ns"; ns; ok = !ok && Alloc.live_blocks a = live } ]

(* Write pairs per probe commit record — about what an intruder commit
   logs. *)
let wal_writes = 24

(* WAL probes: [Wal.append_commit] of an intruder-sized record, its
   share of group-commit fsyncs included; then the time [Wal.recover]
   takes to replay a synced log of such records.  Each batch starts a
   fresh device rooted at a checkpoint of a small world, so the log
   stays bounded and recovery has a root. *)
let wal ~budget_ns =
  let w =
    Engine.create ~global_words:4096 ~stack_words:1024 ~arena_words:4096
      ~nthreads:1 Config.default
  in
  let snapshot = Engine.snapshot w in
  let writes = Array.init wal_writes (fun k -> (100 + k, k)) in
  let device () =
    let d = Wal.create () in
    Wal.checkpoint d ~snapshot;
    d
  in
  let d = ref (device ()) in
  let append () =
    ignore
      (Wal.append_commit !d ~tid:0 ~writes ~allocs:[||] ~frees:[||]
        : int * bool)
  in
  let ns =
    per_op ~budget_ns ~ops:1
      ~fresh:(fun () -> d := device ())
      (fun () -> append ())
  in
  (* Recovery of a 1024-commit log, median of five replays. *)
  d := device ();
  for _ = 1 to 1024 do
    append ()
  done;
  Wal.sync !d;
  let ok = ref true in
  let replay () =
    let t0 = now_ns () in
    (match Wal.recover !d with
    | Ok rc ->
        if List.length rc.Wal.r_applied_seqs <> Wal.synced_seq !d then
          ok := false
    | Error _ -> ok := false);
    float_of_int (now_ns () - t0) /. 1e6
  in
  let recover_ms = Summary.median (List.init 5 (fun _ -> replay ())) in
  ([ { name = "wal.append_ns"; ns; ok = !ok } ], recover_ms)
