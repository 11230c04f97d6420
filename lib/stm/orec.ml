module Padding = Captured_util.Padding

type t = {
  table : int Atomic.t array;
  slot_bits : int;
  (* [shard = index lsr slot_bits]: a shard is a contiguous index range
     of the flat table, read off the high bits of the hash. *)
  shift : int; (* take the HIGH bits of the multiplicative hash *)
  version_clock : int Atomic.t;
}

(* Words per conflict-detection granule: 2^2 words = one 32-byte line. *)
let line_words_log2 = 2

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Every atomic here lives alone on its cache line ({!Padding}): a plain
   [Atomic.make] boxes the int in a one-word block, so [Array.init] would
   pack eight orecs per 64-byte line and every CAS on one would invalidate
   the other seven in remote caches — classic false sharing, and the
   version clock (touched by every tvalidate commit) is the hottest word
   in the system.  Cost is memory only: 2^bits * 64 B (1 MiB at the
   default 14 bits), paid once per table.  The table is one contiguous
   padded region ({!Padding.padded_table}), so each shard's records
   cluster in the address space. *)
let create ~bits ?(shards = 1) () =
  if bits < 4 || bits > 24 then invalid_arg "Orec.create: bits";
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "Orec.create: shards must be a power of two >= 1";
  let shard_bits = log2 shards in
  if shard_bits >= bits then invalid_arg "Orec.create: more shards than orecs";
  {
    table = Padding.padded_table (1 lsl bits) 0;
    slot_bits = bits - shard_bits;
    shift = 62 - bits;
    version_clock = Padding.padded_atomic 0;
  }

(* Fibonacci hashing: the low product bits are periodic in the address
   (stride 2^k aliasing!), so the index must come from the HIGH bits —
   which also makes the shard id the top bits of the hash. *)
let index_of t addr =
  (((addr lsr line_words_log2) * 0x2545F4914F6CDD1D) land max_int) lsr t.shift

let count t = Array.length t.table
let shard_count t = Array.length t.table lsr t.slot_bits
let slot_bits t = t.slot_bits
let shard_of t i = i lsr t.slot_bits
let get t i = Atomic.get t.table.(i)
let is_locked word = word land 1 = 1
let owner_of word = word lsr 1
let version_of word = word lsr 1
let locked_word ~owner = (owner lsl 1) lor 1
let bumped prev = ((version_of prev) + 1) lsl 1

let try_lock t i ~owner ~expected =
  Atomic.compare_and_set t.table.(i) expected (locked_word ~owner)

let unlock t i word = Atomic.set t.table.(i) word

(* Global version clock (TL2/LSA-style).  Commit-time stamps are clock
   values, so "record version <= snapshot timestamp" certifies that the
   line is unchanged since the snapshot was taken — the O(1) consistency
   check timestamp-based validation rests on.  In decentralized-clock
   mode ({!Config.dclock}) writer commits never touch this word; it
   survives as the resync rendezvous aborting threads use to jump their
   local epoch past everything already published. *)

let clock t = Atomic.get t.version_clock

let advance_clock t = 1 + Atomic.fetch_and_add t.version_clock 1

let stamped ~ts = ts lsl 1

(* Decentralized stamps: a version is [(epoch lsl tid_bits) lor tid], so
   every thread owns a disjoint, per-thread-monotonic slice of version
   space and never needs the shared counter to produce a fresh stamp. *)

let tid_bits = 10
let max_tids = 1 lsl tid_bits
let stamp ~epoch ~tid = (epoch lsl tid_bits) lor tid
let epoch_of_stamp ts = ts lsr tid_bits
let tid_of_stamp ts = ts land (max_tids - 1)
