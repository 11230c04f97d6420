module Alloc_log = Captured_core.Alloc_log

type analysis = Baseline | Runtime of Alloc_log.backend | Compiler

type scope = {
  check_stack : bool;
  check_heap : bool;
  on_reads : bool;
  on_writes : bool;
}

type t = {
  analysis : analysis;
  scope : scope;
  fastpath : bool;
  tvalidate : bool;
  static_filter : bool;
  pessimistic_reads : bool;
  waw_filter : bool;
  use_private_log : bool;
  audit : bool;
  orec_bits : int;
  line_words_log2 : int;
  array_capacity : int;
  filter_buckets : int;
  spin_limit : int;
  validate_every : int;
  cm : Cm.policy;
  fuel : int;
  fault : Fault.kind option;
  fences : bool;
  orec_shards : int;
  orec_map : Orec.mapping;
  dclock : bool;
  lazy_versioning : bool;
  durable : bool;
  wal_group : int;
  ebr : bool;
}

let full_scope =
  { check_stack = true; check_heap = true; on_reads = true; on_writes = true }

let write_only_scope =
  { check_stack = true; check_heap = true; on_reads = false; on_writes = true }

let heap_write_only_scope =
  { check_stack = false; check_heap = true; on_reads = false; on_writes = true }

let default =
  {
    analysis = Baseline;
    scope = full_scope;
    fastpath = false;
    tvalidate = false;
    static_filter = false;
    pessimistic_reads = false;
    waw_filter = true;
    use_private_log = true;
    audit = false;
    orec_bits = 14;
    line_words_log2 = 2;
    array_capacity = 4;
    filter_buckets = 4096;
    spin_limit = 32;
    validate_every = 512;
    cm = Cm.Backoff;
    fuel = 0;
    fault = None;
    fences = false;
    orec_shards = 1;
    orec_map = Orec.Hash;
    dclock = false;
    lazy_versioning = false;
    durable = false;
    wal_group = 4;
    ebr = false;
  }

let baseline = default
let runtime ?(scope = full_scope) backend =
  { default with analysis = Runtime backend; scope }

let compiler = { default with analysis = Compiler }

let runtime_hybrid ?(scope = full_scope) backend =
  { default with analysis = Runtime backend; scope; static_filter = true }

let pessimistic t = { t with pessimistic_reads = true }
let with_fastpath ?(on = true) t = { t with fastpath = on }
let with_tvalidate ?(on = true) t = { t with tvalidate = on }
let with_cm policy t = { t with cm = policy }
let with_fuel fuel t =
  if fuel < 0 then invalid_arg "Config.with_fuel: negative budget";
  { t with fuel }

let with_fences ?(on = true) t = { t with fences = on }

let with_shards ?map n t =
  if n < 1 || n land (n - 1) <> 0 then
    invalid_arg "Config.with_shards: shards must be a power of two >= 1";
  {
    t with
    orec_shards = n;
    (* Sharding the table and decentralizing the clock travel together:
       the point of both is removing system-wide hot words.  [dclock]
       stays separately togglable ([with_dclock]) for A/Bs. *)
    dclock = n > 1;
    orec_map = (match map with Some m -> m | None -> t.orec_map);
  }

let with_dclock ?(on = true) t = { t with dclock = on }
let with_lazy ?(on = true) t = { t with lazy_versioning = on }

let with_durable ?group ?(on = true) t =
  let wal_group =
    match group with
    | None -> t.wal_group
    | Some g ->
        if g < 1 then invalid_arg "Config.with_durable: group must be >= 1";
        g
  in
  { t with durable = on; wal_group }

let with_ebr ?(on = true) t = { t with ebr = on }
let with_orec_map m t = { t with orec_map = m }
let with_fault fault t = { t with fault }
let has_fault t kind = t.fault = Some kind

let audit = { default with audit = true }

let name t =
  let scope_name s =
    match (s.check_stack, s.check_heap, s.on_reads, s.on_writes) with
    | true, true, true, true -> "stack+heap,r+w"
    | true, true, false, true -> "stack+heap,w"
    | false, true, false, true -> "heap,w"
    | _ ->
        Printf.sprintf "%s%s,%s%s"
          (if s.check_stack then "stack" else "")
          (if s.check_heap then "+heap" else "")
          (if s.on_reads then "r" else "")
          (if s.on_writes then "+w" else "")
  in
  let suffix =
    (if t.fastpath then "+fp" else "")
    ^ (if t.tvalidate then "+tv" else "")
    ^ (if t.lazy_versioning then "+lazy" else "")
    ^ (if t.durable then "+wal" else "")
    ^ (if t.ebr then "+ebr" else "")
    ^ (if t.pessimistic_reads then "+pessimistic" else "")
    ^ (match t.cm with
      | Cm.Backoff -> ""
      | p -> "+cm:" ^ Cm.policy_name p)
    ^ (if t.fuel > 0 then Printf.sprintf "+fuel:%d" t.fuel else "")
    ^ (if t.orec_shards > 1 then Printf.sprintf "+shards:%d" t.orec_shards
       else "")
    ^ (match t.orec_map with Orec.Affinity -> "+map:affinity" | Orec.Hash -> "")
    ^ (if t.dclock && t.orec_shards = 1 then "+dclock"
       else if (not t.dclock) && t.orec_shards > 1 then "+gvclock"
       else "")
    ^ (if t.fences then "+fence" else "")
    ^ (match t.fault with
      | None -> ""
      | Some f -> "+fault:" ^ Fault.name f)
  in
  match t.analysis with
  | Baseline -> (if t.audit then "audit" else "baseline") ^ suffix
  | Runtime b ->
      Printf.sprintf "%s-%s(%s)%s"
        (if t.static_filter then "hybrid" else "runtime")
        (Alloc_log.backend_name b) (scope_name t.scope) suffix
  | Compiler -> "compiler" ^ suffix

let mode_name t =
  (if t.lazy_versioning then "lazy" else "eager")
  ^ (if t.fastpath then "+fp" else "")
  ^ (if t.tvalidate then "+tv" else "")
  ^ (if t.durable then "+wal" else "")
  ^ (if t.ebr then "+ebr" else "")
  ^ (if t.pessimistic_reads then "+pessimistic" else "")
  ^ (if t.orec_shards > 1 then Printf.sprintf "+shards:%d" t.orec_shards
     else "")
  ^ (if t.dclock && t.orec_shards = 1 then "+dclock"
     else if (not t.dclock) && t.orec_shards > 1 then "+gvclock"
     else "")
