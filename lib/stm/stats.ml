type t = {
  mutable commits : int;
  mutable aborts : int;
  mutable user_aborts : int;
  mutable reads : int;
  mutable writes : int;
  mutable reads_elided_stack : int;
  mutable reads_elided_heap : int;
  mutable reads_elided_private : int;
  mutable reads_elided_static : int;
  mutable writes_elided_stack : int;
  mutable writes_elided_heap : int;
  mutable writes_elided_private : int;
  mutable writes_elided_static : int;
  mutable waw_hits : int;
  mutable undo_entries : int;
  mutable validations : int;
  mutable lock_waits : int;
  mutable audit_reads_heap : int;
  mutable audit_reads_stack : int;
  mutable audit_reads_required : int;
  mutable audit_reads_other : int;
  mutable audit_writes_heap : int;
  mutable audit_writes_stack : int;
  mutable audit_writes_required : int;
  mutable audit_writes_other : int;
  mutable audit_static_violations : int;
  mutable tx_allocs : int;
  mutable tx_frees : int;
  mutable capture_summary_rejects : int;
  mutable capture_mru_hits : int;
  mutable capture_backend_probes : int;
  mutable capture_promotions : int;
  mutable capture_log_overflows : int;
  mutable capture_check_cycles : int;
  mutable validations_skipped : int;
  mutable snapshot_extensions : int;
  mutable readonly_fast_commits : int;
  mutable clock_advances : int;
  mutable validation_cycles : int;
  mutable spin_aborts : int;
  mutable backoff_cycles : int;
  mutable fuel_exhaustions : int;
  mutable sandbox_aborts : int;
  mutable sandbox_bounds : int;
  mutable faults_injected : int;
  mutable cm_max_consec_aborts : int;
  mutable cm_starvation_events : int;
  mutable clock_cas : int;
  mutable clock_resyncs : int;
  mutable redo_inserts : int;
  mutable redo_hits : int;
  mutable redo_skips : int;
  mutable publish_cycles : int;
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable wal_fsyncs : int;
  mutable wal_skips : int;
  mutable limbo_blocks : int;
  mutable limbo_words : int;
  mutable epoch_advances : int;
  mutable reclaim_stalls : int;
  mutable grace_waits : int;
  mutable shard_acquires : int array;
  mutable shard_conflicts : int array;
  conflict_pairs : (int, int) Hashtbl.t;
}

let create () =
  {
    commits = 0;
    aborts = 0;
    user_aborts = 0;
    reads = 0;
    writes = 0;
    reads_elided_stack = 0;
    reads_elided_heap = 0;
    reads_elided_private = 0;
    reads_elided_static = 0;
    writes_elided_stack = 0;
    writes_elided_heap = 0;
    writes_elided_private = 0;
    writes_elided_static = 0;
    waw_hits = 0;
    undo_entries = 0;
    validations = 0;
    lock_waits = 0;
    audit_reads_heap = 0;
    audit_reads_stack = 0;
    audit_reads_required = 0;
    audit_reads_other = 0;
    audit_writes_heap = 0;
    audit_writes_stack = 0;
    audit_writes_required = 0;
    audit_writes_other = 0;
    audit_static_violations = 0;
    tx_allocs = 0;
    tx_frees = 0;
    capture_summary_rejects = 0;
    capture_mru_hits = 0;
    capture_backend_probes = 0;
    capture_promotions = 0;
    capture_log_overflows = 0;
    capture_check_cycles = 0;
    validations_skipped = 0;
    snapshot_extensions = 0;
    readonly_fast_commits = 0;
    clock_advances = 0;
    validation_cycles = 0;
    spin_aborts = 0;
    backoff_cycles = 0;
    fuel_exhaustions = 0;
    sandbox_aborts = 0;
    sandbox_bounds = 0;
    faults_injected = 0;
    cm_max_consec_aborts = 0;
    cm_starvation_events = 0;
    clock_cas = 0;
    clock_resyncs = 0;
    redo_inserts = 0;
    redo_hits = 0;
    redo_skips = 0;
    publish_cycles = 0;
    wal_records = 0;
    wal_bytes = 0;
    wal_fsyncs = 0;
    wal_skips = 0;
    limbo_blocks = 0;
    limbo_words = 0;
    epoch_advances = 0;
    reclaim_stalls = 0;
    grace_waits = 0;
    shard_acquires = [||];
    shard_conflicts = [||];
    conflict_pairs = Hashtbl.create 8;
  }

let ensure_shards t n =
  if Array.length t.shard_acquires < n then begin
    let grow a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.shard_acquires <- grow t.shard_acquires;
    t.shard_conflicts <- grow t.shard_conflicts
  end

(* Conflict pairs are keyed [(shard, waiter, owner)] packed into one int:
   tids fit the stamp's 10-bit field ({!Orec.tid_bits}), so 20 low bits
   carry the pair and the rest the shard. *)
let pair_key ~shard ~tid ~peer = (shard lsl 20) lor (tid lsl 10) lor peer

let note_pair t ~shard ~tid ~peer =
  let k = pair_key ~shard ~tid ~peer in
  let prev = match Hashtbl.find_opt t.conflict_pairs k with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace t.conflict_pairs k (prev + 1)

let pairs t =
  Hashtbl.fold
    (fun k n acc -> (k lsr 20, (k lsr 10) land 1023, k land 1023, n) :: acc)
    t.conflict_pairs []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* The counter table: one row per int field, in report order.  Merging,
   the JSON object and [stamp_run]'s report all iterate it, so a new
   counter costs a field, a [create] line and a row. *)
type counter = {
  name : string;
  merge : int -> int -> int;
  get : t -> int;
  set : t -> int -> unit;
}

let row name get set = { name; merge = ( + ); get; set }

(* Per-thread high-water marks, not flow counts: merging takes the max. *)
let max_row name get set = { name; merge = max; get; set }

let counters =
  [
    row "commits" (fun s -> s.commits) (fun s v -> s.commits <- v);
    row "aborts" (fun s -> s.aborts) (fun s v -> s.aborts <- v);
    row "user_aborts" (fun s -> s.user_aborts) (fun s v -> s.user_aborts <- v);
    row "reads" (fun s -> s.reads) (fun s v -> s.reads <- v);
    row "writes" (fun s -> s.writes) (fun s v -> s.writes <- v);
    row "reads_elided_stack" (fun s -> s.reads_elided_stack)
      (fun s v -> s.reads_elided_stack <- v);
    row "reads_elided_heap" (fun s -> s.reads_elided_heap)
      (fun s v -> s.reads_elided_heap <- v);
    row "reads_elided_private" (fun s -> s.reads_elided_private)
      (fun s v -> s.reads_elided_private <- v);
    row "reads_elided_static" (fun s -> s.reads_elided_static)
      (fun s v -> s.reads_elided_static <- v);
    row "writes_elided_stack" (fun s -> s.writes_elided_stack)
      (fun s v -> s.writes_elided_stack <- v);
    row "writes_elided_heap" (fun s -> s.writes_elided_heap)
      (fun s v -> s.writes_elided_heap <- v);
    row "writes_elided_private" (fun s -> s.writes_elided_private)
      (fun s v -> s.writes_elided_private <- v);
    row "writes_elided_static" (fun s -> s.writes_elided_static)
      (fun s v -> s.writes_elided_static <- v);
    row "waw_hits" (fun s -> s.waw_hits) (fun s v -> s.waw_hits <- v);
    row "undo_entries" (fun s -> s.undo_entries)
      (fun s v -> s.undo_entries <- v);
    row "validations" (fun s -> s.validations) (fun s v -> s.validations <- v);
    row "lock_waits" (fun s -> s.lock_waits) (fun s v -> s.lock_waits <- v);
    row "audit_reads_heap" (fun s -> s.audit_reads_heap)
      (fun s v -> s.audit_reads_heap <- v);
    row "audit_reads_stack" (fun s -> s.audit_reads_stack)
      (fun s v -> s.audit_reads_stack <- v);
    row "audit_reads_required" (fun s -> s.audit_reads_required)
      (fun s v -> s.audit_reads_required <- v);
    row "audit_reads_other" (fun s -> s.audit_reads_other)
      (fun s v -> s.audit_reads_other <- v);
    row "audit_writes_heap" (fun s -> s.audit_writes_heap)
      (fun s v -> s.audit_writes_heap <- v);
    row "audit_writes_stack" (fun s -> s.audit_writes_stack)
      (fun s v -> s.audit_writes_stack <- v);
    row "audit_writes_required" (fun s -> s.audit_writes_required)
      (fun s v -> s.audit_writes_required <- v);
    row "audit_writes_other" (fun s -> s.audit_writes_other)
      (fun s v -> s.audit_writes_other <- v);
    row "audit_static_violations" (fun s -> s.audit_static_violations)
      (fun s v -> s.audit_static_violations <- v);
    row "tx_allocs" (fun s -> s.tx_allocs) (fun s v -> s.tx_allocs <- v);
    row "tx_frees" (fun s -> s.tx_frees) (fun s v -> s.tx_frees <- v);
    row "capture_summary_rejects" (fun s -> s.capture_summary_rejects)
      (fun s v -> s.capture_summary_rejects <- v);
    row "capture_mru_hits" (fun s -> s.capture_mru_hits)
      (fun s v -> s.capture_mru_hits <- v);
    row "capture_backend_probes" (fun s -> s.capture_backend_probes)
      (fun s v -> s.capture_backend_probes <- v);
    row "capture_promotions" (fun s -> s.capture_promotions)
      (fun s v -> s.capture_promotions <- v);
    row "capture_log_overflows" (fun s -> s.capture_log_overflows)
      (fun s v -> s.capture_log_overflows <- v);
    row "capture_check_cycles" (fun s -> s.capture_check_cycles)
      (fun s v -> s.capture_check_cycles <- v);
    row "validations_skipped" (fun s -> s.validations_skipped)
      (fun s v -> s.validations_skipped <- v);
    row "snapshot_extensions" (fun s -> s.snapshot_extensions)
      (fun s v -> s.snapshot_extensions <- v);
    row "readonly_fast_commits" (fun s -> s.readonly_fast_commits)
      (fun s v -> s.readonly_fast_commits <- v);
    row "clock_advances" (fun s -> s.clock_advances)
      (fun s v -> s.clock_advances <- v);
    row "validation_cycles" (fun s -> s.validation_cycles)
      (fun s v -> s.validation_cycles <- v);
    row "spin_aborts" (fun s -> s.spin_aborts) (fun s v -> s.spin_aborts <- v);
    row "backoff_cycles" (fun s -> s.backoff_cycles)
      (fun s v -> s.backoff_cycles <- v);
    row "fuel_exhaustions" (fun s -> s.fuel_exhaustions)
      (fun s v -> s.fuel_exhaustions <- v);
    row "sandbox_aborts" (fun s -> s.sandbox_aborts)
      (fun s v -> s.sandbox_aborts <- v);
    row "sandbox_bounds" (fun s -> s.sandbox_bounds)
      (fun s v -> s.sandbox_bounds <- v);
    row "faults_injected" (fun s -> s.faults_injected)
      (fun s v -> s.faults_injected <- v);
    max_row "cm_max_consec_aborts" (fun s -> s.cm_max_consec_aborts)
      (fun s v -> s.cm_max_consec_aborts <- v);
    row "cm_starvation_events" (fun s -> s.cm_starvation_events)
      (fun s v -> s.cm_starvation_events <- v);
    row "clock_cas" (fun s -> s.clock_cas) (fun s v -> s.clock_cas <- v);
    row "clock_resyncs" (fun s -> s.clock_resyncs)
      (fun s v -> s.clock_resyncs <- v);
    row "redo_inserts" (fun s -> s.redo_inserts)
      (fun s v -> s.redo_inserts <- v);
    row "redo_hits" (fun s -> s.redo_hits) (fun s v -> s.redo_hits <- v);
    row "redo_skips" (fun s -> s.redo_skips) (fun s v -> s.redo_skips <- v);
    row "publish_cycles" (fun s -> s.publish_cycles)
      (fun s v -> s.publish_cycles <- v);
    row "wal_records" (fun s -> s.wal_records) (fun s v -> s.wal_records <- v);
    row "wal_bytes" (fun s -> s.wal_bytes) (fun s v -> s.wal_bytes <- v);
    row "wal_fsyncs" (fun s -> s.wal_fsyncs) (fun s v -> s.wal_fsyncs <- v);
    row "wal_skips" (fun s -> s.wal_skips) (fun s v -> s.wal_skips <- v);
    max_row "limbo_blocks" (fun s -> s.limbo_blocks)
      (fun s v -> s.limbo_blocks <- v);
    max_row "limbo_words" (fun s -> s.limbo_words)
      (fun s v -> s.limbo_words <- v);
    row "epoch_advances" (fun s -> s.epoch_advances)
      (fun s v -> s.epoch_advances <- v);
    row "reclaim_stalls" (fun s -> s.reclaim_stalls)
      (fun s v -> s.reclaim_stalls <- v);
    row "grace_waits" (fun s -> s.grace_waits) (fun s v -> s.grace_waits <- v);
  ]

let merge acc x =
  List.iter (fun c -> c.set acc (c.merge (c.get acc) (c.get x))) counters;
  ensure_shards acc (Array.length x.shard_acquires);
  Array.iteri
    (fun i v -> acc.shard_acquires.(i) <- acc.shard_acquires.(i) + v)
    x.shard_acquires;
  Array.iteri
    (fun i v -> acc.shard_conflicts.(i) <- acc.shard_conflicts.(i) + v)
    x.shard_conflicts;
  Hashtbl.iter
    (fun k n ->
      let prev = match Hashtbl.find_opt acc.conflict_pairs k with
        | Some p -> p
        | None -> 0
      in
      Hashtbl.replace acc.conflict_pairs k (prev + n))
    x.conflict_pairs

let sum xs =
  let acc = create () in
  List.iter (merge acc) xs;
  acc

let reads_elided t =
  t.reads_elided_stack + t.reads_elided_heap + t.reads_elided_private
  + t.reads_elided_static

let writes_elided t =
  t.writes_elided_stack + t.writes_elided_heap + t.writes_elided_private
  + t.writes_elided_static

let abort_ratio t =
  if t.commits = 0 then 0. else float_of_int t.aborts /. float_of_int t.commits

let to_json t =
  let field c = Printf.sprintf "\"%s\":%d" c.name (c.get t) in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let pair (shard, tid, peer, n) =
    Printf.sprintf "{\"shard\":%d,\"tid\":%d,\"peer\":%d,\"count\":%d}" shard
      tid peer n
  in
  (* The hottest pairs only, so a pathological run cannot flood the line. *)
  let top = List.filteri (fun i _ -> i < 8) (pairs t) in
  Printf.sprintf
    "{%s,\"shard_acquires\":[%s],\"shard_conflicts\":[%s],\
     \"top_conflict_pairs\":[%s]}"
    (String.concat "," (List.map field counters))
    (ints t.shard_acquires) (ints t.shard_conflicts)
    (String.concat "," (List.map pair top))
