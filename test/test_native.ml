(* Native-backend tests: real domains, barrier allocation behaviour, and
   the simulator-determinism contract the hot-path rewrite must keep.

   The counter/bank micros run on 2-4 domains; on a single-core host the
   domains interleave rather than overlap, which still exercises every
   synchronization path (orec CAS contention, backoff, join-time stat
   collection) even though it proves nothing about speedup. *)

open Captured_stm
module App = Captured_apps.App
module Registry = Captured_apps.Registry
module Memory = Captured_tmem.Memory
module Alloc = Captured_tmem.Alloc
module Alloc_log = Captured_core.Alloc_log
module Site = Captured_core.Site
module Access = Captured_tstruct.Access

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Counter micro: N domains hammer one cell *)

let run_counter ~nthreads ~incs config =
  let w = Engine.create ~nthreads config in
  let cell = Alloc.alloc (Engine.global_arena w) 1 in
  let r =
    Engine.run_native w (fun th ->
        for _ = 1 to incs do
          Txn.atomic th (fun tx -> Txn.write tx cell (Txn.read tx cell + 1))
        done)
  in
  (r, Memory.get (Engine.memory w) cell)

let test_counter_domains nthreads () =
  let incs = 200 in
  let r, total = run_counter ~nthreads ~incs Config.baseline in
  check_int "no lost updates" (nthreads * incs) total;
  check_int "every transaction committed" (nthreads * incs)
    r.Engine.stats.Stats.commits;
  check_int "per-domain commit split" incs
    r.Engine.per_thread.(nthreads - 1).Stats.commits;
  check "wall-derived makespan is nonzero" true (r.Engine.makespan > 0);
  check_int "one wall entry per domain" nthreads
    (Array.length r.Engine.per_thread_wall);
  Array.iter
    (fun wall -> check "per-domain wall is nonzero" true (wall > 0.))
    r.Engine.per_thread_wall;
  (* The run's makespan is the slowest domain's span, in nanoseconds. *)
  let slowest = Array.fold_left max 0. r.Engine.per_thread_wall in
  check_int "makespan = slowest domain" (int_of_float (1e9 *. slowest))
    r.Engine.makespan

let test_counter_tvalidate () =
  let r, total =
    run_counter ~nthreads:4 ~incs:100 (Config.with_tvalidate Config.baseline)
  in
  check_int "no lost updates under tvalidate" 400 total;
  check_int "commits" 400 r.Engine.stats.Stats.commits

(* ------------------------------------------------------------------ *)
(* Decentralized clock: sharded orec table on real domains *)

let dclock_config = Config.with_shards 4 (Config.with_tvalidate Config.baseline)

let test_counter_dclock () =
  let r, total = run_counter ~nthreads:4 ~incs:100 dclock_config in
  check_int "no lost updates under dclock" 400 total;
  check_int "commits" 400 r.Engine.stats.Stats.commits;
  (* The tentpole invariant: decentralized writer commits never touch the
     shared clock. *)
  check_int "no clock CAS on writer commits" 0 r.Engine.stats.Stats.clock_cas

(* Epoch skew: thread 0 commits [rounds] writer transactions back to
   back, driving its local epoch far past every peer's watermark for it;
   the other threads then each run one transaction over the stamped
   cells.  Their first fresh read of a high-epoch stamp must trigger a
   watermark resync (a snapshot extension), after which the whole scan
   validates — same commits and aborts as the centralized shards=1
   reference, with zero clock CASes. *)
let run_epoch_skew ~mode config =
  let nthreads = 4 and rounds = 30 in
  let w = Engine.create ~nthreads config in
  let cells = Alloc.alloc (Engine.global_arena w) rounds in
  let out = Alloc.alloc (Engine.global_arena w) nthreads in
  let flag = Atomic.make false in
  let body th =
    if Txn.thread_id th = 0 then begin
      for k = 0 to rounds - 1 do
        Txn.atomic th (fun tx -> Txn.write tx (cells + k) (k + 1))
      done;
      Atomic.set flag true
    end
    else begin
      while not (Atomic.get flag) do
        Txn.yield_hint th
      done;
      Txn.atomic th (fun tx ->
          let sum = ref 0 in
          for k = 0 to rounds - 1 do
            sum := !sum + Txn.read tx (cells + k)
          done;
          Txn.write tx (out + Txn.thread_id th) !sum)
    end
  in
  let r =
    match mode with
    | `Native -> Engine.run_native w body
    | `Sim seed -> Engine.run_sim ~seed w body
  in
  let expected = rounds * (rounds + 1) / 2 in
  for tid = 1 to nthreads - 1 do
    check_int "reader summed a consistent snapshot" expected
      (Memory.get (Engine.memory w) (out + tid))
  done;
  r

let test_dclock_epoch_skew () =
  let centralized = Config.with_tvalidate Config.baseline in
  let r_ref = run_epoch_skew ~mode:(`Sim 11) centralized in
  let r_sim = run_epoch_skew ~mode:(`Sim 11) dclock_config in
  let r_nat = run_epoch_skew ~mode:`Native dclock_config in
  let commits (r : Engine.result) = r.Engine.stats.Stats.commits in
  let aborts (r : Engine.result) = r.Engine.stats.Stats.aborts in
  (* Phase separation makes the workload conflict-free, so the outcome
     is schedule-independent and all three runs must agree exactly. *)
  check_int "centralized reference commits" 33 (commits r_ref);
  check_int "dclock sim commits match reference" (commits r_ref)
    (commits r_sim);
  check_int "dclock native commits match reference" (commits r_ref)
    (commits r_nat);
  check_int "centralized aborts" 0 (aborts r_ref);
  check_int "dclock sim aborts" 0 (aborts r_sim);
  check_int "dclock native aborts" 0 (aborts r_nat);
  (* Centralized writer commits each pay the clock CAS; decentralized
     ones never do, even with real parallelism. *)
  check "centralized pays clock CASes" true
    (r_ref.Engine.stats.Stats.clock_cas > 0);
  check_int "dclock sim clock CASes" 0 r_sim.Engine.stats.Stats.clock_cas;
  check_int "dclock native clock CASes" 0 r_nat.Engine.stats.Stats.clock_cas;
  (* Each reader's first fresh read of an epoch beyond its watermark must
     have forced a validating resync. *)
  check "epoch skew forced watermark resyncs" true
    (r_sim.Engine.stats.Stats.snapshot_extensions >= 3);
  check "native skew forced watermark resyncs" true
    (r_nat.Engine.stats.Stats.snapshot_extensions >= 3)

(* ------------------------------------------------------------------ *)
(* Bank micro: random transfers conserve the total balance *)

let test_bank_invariant () =
  let nthreads = 4 and accounts = 8 and transfers = 150 and opening = 100 in
  let w = Engine.create ~nthreads Config.baseline in
  let base = Alloc.alloc (Engine.global_arena w) accounts in
  for i = 0 to accounts - 1 do
    Memory.set (Engine.memory w) (base + i) opening
  done;
  let _ =
    Engine.run_native w (fun th ->
        let g = Txn.thread_prng th in
        for _ = 1 to transfers do
          let src = Captured_util.Prng.int g accounts
          and dst = Captured_util.Prng.int g accounts
          and amount = 1 + Captured_util.Prng.int g 5 in
          Txn.atomic th (fun tx ->
              Txn.write tx (base + src) (Txn.read tx (base + src) - amount);
              Txn.write tx (base + dst) (Txn.read tx (base + dst) + amount))
        done)
  in
  let total = ref 0 in
  for i = 0 to accounts - 1 do
    total := !total + Memory.get (Engine.memory w) (base + i)
  done;
  check_int "balance conserved" (accounts * opening) !total

(* ------------------------------------------------------------------ *)
(* STAMP app natively, across the scale-bench config matrix *)

let vacation = Option.get (Registry.find "vacation-low")

let scale_configs =
  let base = Config.runtime Alloc_log.Tree in
  [
    ("base", base);
    ("fp", Config.with_fastpath base);
    ("tv", Config.with_tvalidate base);
    ("fptv", Config.with_fastpath (Config.with_tvalidate base));
  ]

let test_vacation_native (name, config) () =
  (* Test scale runs 40 transactions per thread; [App.run_checked] also
     re-verifies the reservation-table invariants post-run. *)
  match
    App.run_checked vacation ~nthreads:4 ~scale:App.Test ~mode:`Native config
  with
  | Error msg -> Alcotest.failf "verification failed under %s: %s" name msg
  | Ok r -> check_int "all transactions committed" 160 r.Engine.stats.Stats.commits

let test_vacation_native_fences () =
  match
    App.run_checked vacation ~nthreads:2 ~scale:App.Test ~mode:`Native
      (Config.with_fences (Config.runtime Alloc_log.Tree))
  with
  | Error msg -> Alcotest.failf "verification failed with fences: %s" msg
  | Ok r -> check_int "commits" 80 r.Engine.stats.Stats.commits

(* ------------------------------------------------------------------ *)
(* Zero-allocation barriers *)

(* Minor-heap words allocated by [f ()].  Both probes carry the same
   constant overhead (the boxed float holding [before]), so equal deltas
   at different iteration counts mean the per-iteration cost is zero. *)
let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Write-side runtime checks with deferred updates and EBR: the barrier
   configuration of the durable intruder benchmark, without the WAL. *)
let heap_w_lazy_tv_ebr =
  Config.with_ebr
    (Config.with_lazy
       (Config.with_tvalidate
          (Config.runtime ~scope:Config.heap_write_only_scope Alloc_log.Tree)))

let read_site = Site.declare ~write:false "test_native.zero_alloc.read"
let write_site = Site.declare ~write:true "test_native.zero_alloc.write"

let zero_alloc_configs =
  let tree = Config.runtime Alloc_log.Tree in
  [
    ("baseline", Config.baseline);
    ("tree", tree);
    ("tree+fp", Config.with_fastpath tree);
    ("heap,w+lazy+tv+ebr", heap_w_lazy_tv_ebr);
  ]

let zero_alloc_callers =
  [
    ("no site", fun tx a -> Txn.write tx a (Txn.read tx a + 1));
    ( "site",
      fun tx a ->
        Txn.write ~site:write_site tx a (Txn.read ~site:read_site tx a + 1) );
    ( "Access.of_tx",
      fun tx ->
        let acc = Access.of_tx tx in
        fun a ->
          acc.Access.write ~site:write_site a
            (acc.Access.read ~site:read_site a + 1) );
  ]

(* Each case runs read-modify-write loops, after a warm-up that grows
   the tx-resident read/undo/acquire/redo arrays past any size the
   measured loops need, over a shared block (full barriers) and over a
   block the transaction allocated (elided under runtime analysis).  The
   callers are the ones applications use: no site, a declared site, and
   an [Access.t] record.  An optional [?site] boxes its [Some site]
   unless the call inlines, so this also guards the build profile. *)
let test_zero_alloc config (_, (rmw : Txn.tx -> int -> unit)) () =
  let w = Engine.create ~nthreads:1 config in
  let th = Engine.setup_thread w in
  let span = 2048 in
  let shared = Alloc.alloc (Engine.global_arena w) span in
  Txn.atomic th (fun tx ->
      let f = rmw tx in
      for k = 0 to span - 1 do
        f (shared + k)
      done);
  let words_per_access ~captured =
    let measure n =
      Txn.atomic th (fun tx ->
          let base = if captured then Txn.alloc tx 512 else shared in
          let f = rmw tx in
          minor_delta (fun () ->
              for k = 0 to n - 1 do
                f (base + k)
              done))
    in
    (* One throwaway round warms the capture-log internals. *)
    ignore (measure 8 : float);
    let small = measure 64 and large = measure 512 in
    (large -. small) /. float_of_int (2 * (512 - 64))
  in
  Alcotest.(check (float 0.))
    "shared accesses: words per access" 0.
    (words_per_access ~captured:false);
  Alcotest.(check (float 0.))
    "captured accesses: words per access" 0.
    (words_per_access ~captured:true);
  match config.Config.analysis with
  | Config.Runtime _ ->
      let s = Txn.thread_stats th in
      check "captured writes really were elided" true
        (s.Stats.writes_elided_heap > 500);
      if config.Config.scope.Config.on_reads then
        check "captured reads really were elided" true
          (s.Stats.reads_elided_heap + s.Stats.reads_elided_private > 500)
  | Config.Baseline | Config.Compiler -> ()

(* ------------------------------------------------------------------ *)
(* Simulator determinism: the hot-path rewrite must not change a single
   scheduling decision.  Reference numbers captured from the simulator
   before the native-backend work; any drift in commits, aborts or
   virtual makespan means replay/exploration traces are invalidated. *)

let sim_refs =
  let tree = Config.runtime Alloc_log.Tree in
  [
    ("baseline", Config.baseline, 106, 214284);
    ( "baseline+fp+tv",
      Config.with_fastpath (Config.with_tvalidate Config.baseline),
      90,
      268125 );
    ("tree", tree, 72, 375584);
    ("tree+fp+tv", Config.with_fastpath (Config.with_tvalidate tree), 108, 225439);
    ("compiler", Config.compiler, 129, 206981);
    ("heap,w+lazy+tv+ebr", heap_w_lazy_tv_ebr, 66, 217065);
    (* Debug configs: the out-of-line barrier helpers.  Audit and fences
       charge no cycles, so they must replay their base config exactly. *)
    ("tree+fuel:64", Config.with_fuel 64 tree, 143, 296787);
    ("tree+pessimistic", Config.pessimistic tree, 61, 527594);
    ("tree+fence", Config.with_fences tree, 72, 375584);
    ("audit", Config.audit, 106, 214284);
  ]

let test_sim_determinism (name, config, aborts, makespan) () =
  let r =
    App.run vacation ~nthreads:4 ~scale:App.Test ~mode:(`Sim 3) config
  in
  check_int (name ^ " commits") 160 r.Engine.stats.Stats.commits;
  check_int (name ^ " aborts") aborts r.Engine.stats.Stats.aborts;
  check_int (name ^ " makespan") makespan r.Engine.makespan

let test_sim_determinism_kmeans () =
  let kmeans = Option.get (Registry.find "kmeans-low") in
  let r =
    App.run kmeans ~nthreads:2 ~scale:App.Test ~mode:(`Sim 7)
      (Config.runtime Alloc_log.Tree)
  in
  check_int "commits" 198 r.Engine.stats.Stats.commits;
  check_int "aborts" 33 r.Engine.stats.Stats.aborts;
  check_int "makespan" 47189 r.Engine.makespan

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "native"
    [
      ( "micro",
        [
          Alcotest.test_case "counter 2 domains" `Quick
            (test_counter_domains 2);
          Alcotest.test_case "counter 4 domains" `Quick
            (test_counter_domains 4);
          Alcotest.test_case "counter tvalidate" `Quick test_counter_tvalidate;
          Alcotest.test_case "bank invariant" `Quick test_bank_invariant;
        ] );
      ( "dclock",
        [
          Alcotest.test_case "counter dclock" `Quick test_counter_dclock;
          Alcotest.test_case "epoch skew resync" `Quick
            test_dclock_epoch_skew;
        ] );
      ( "stamp",
        List.map
          (fun ((name, _) as entry) ->
            Alcotest.test_case ("vacation-low " ^ name) `Quick
              (test_vacation_native entry))
          scale_configs
        @ [
            Alcotest.test_case "vacation-low fences" `Quick
              test_vacation_native_fences;
          ] );
      ( "zero-alloc",
        List.concat_map
          (fun (cname, config) ->
            List.map
              (fun ((how, _) as caller) ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %s" cname how)
                  `Quick
                  (test_zero_alloc config caller))
              zero_alloc_callers)
          zero_alloc_configs );
      ( "sim-determinism",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case ("vacation-low " ^ name) `Quick
              (test_sim_determinism entry))
          sim_refs
        @ [
            Alcotest.test_case "kmeans-low tree" `Quick
              test_sim_determinism_kmeans;
          ] );
    ]
