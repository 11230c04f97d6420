(* Tests for the schedule-exploration checker: controlled-scheduler
   determinism and replay fidelity, the opacity oracle on hand-built
   histories, clean sweeps over the micro workloads, and the
   injected-bug canary (caught, minimized, replayable). *)

module Config = Captured_stm.Config
module Fault = Captured_stm.Fault
module Engine = Captured_stm.Engine
module Txn = Captured_stm.Txn
module Alloc = Captured_tmem.Alloc
module App = Captured_apps.App
module Alloc_log = Captured_core.Alloc_log
module History = Captured_check.History
module Oracle = Captured_check.Oracle
module Strategy = Captured_check.Strategy
module Minimize = Captured_check.Minimize
module Workloads = Captured_check.Workloads
module Harness = Captured_check.Harness

let tree = Config.runtime Alloc_log.Tree

let configs =
  [
    Config.baseline;
    tree;
    Config.with_fastpath tree;
    Config.with_tvalidate tree;
    Config.with_tvalidate (Config.with_fastpath tree);
  ]

(* ------------------------------------------------------------------ *)
(* Controlled scheduler                                                *)

let test_deterministic () =
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let go () =
    Harness.run_one ~seed:5 ~workload ~config:tree
      (Strategy.random_control ~seed:99 ~persist:80)
  in
  let a = go () and b = go () in
  Alcotest.(check int)
    "same schedule hash"
    (Strategy.hash a.Harness.trace)
    (Strategy.hash b.Harness.trace);
  Alcotest.(check int) "same commits" a.Harness.commits b.Harness.commits;
  Alcotest.(check int) "same events" a.Harness.events b.Harness.events;
  Alcotest.(check bool) "no violation" true (a.Harness.violation = None)

let test_replay_fidelity () =
  (* Any schedule replays exactly from its intervention list alone. *)
  let workload = Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:2 in
  for i = 0 to 19 do
    let r =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.random_control ~seed:(1000 + i) ~persist:70)
    in
    let again =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.replay_control
           ~interventions:(Strategy.interventions r.Harness.trace)
           ())
    in
    Alcotest.(check int)
      (Printf.sprintf "replay %d hash" i)
      (Strategy.hash r.Harness.trace)
      (Strategy.hash again.Harness.trace)
  done

let test_schedules_differ () =
  (* Different seeds must actually explore different interleavings. *)
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let hashes = Hashtbl.create 64 in
  for i = 0 to 39 do
    let r =
      Harness.run_one ~seed:5 ~workload ~config:tree
        (Strategy.random_control ~seed:i ~persist:80)
    in
    Hashtbl.replace hashes (Strategy.hash r.Harness.trace) ()
  done;
  Alcotest.(check bool)
    "at least 20 distinct schedules out of 40 seeds" true
    (Hashtbl.length hashes >= 20)

(* ------------------------------------------------------------------ *)
(* Oracle unit tests on hand-built histories                           *)

let run_oracle ?(strictness = Oracle.Committed_only) ?(initial = fun _ -> 0)
    ?(final = fun _ -> 0) events =
  let h = History.create () in
  List.iter (fun (tid, ev) -> History.record h ~tid ev) events;
  Oracle.check ~strictness ~initial ~final ~history:h
    ~verify:(fun () -> Ok ())
    ()

let rd addr value = Txn.Ev_read { addr; value; cls = Txn.Instrumented }
let wr addr value = Txn.Ev_write { addr; value; cls = Txn.Instrumented }

let test_oracle_clean_history () =
  (* Two serial increments: nothing to complain about. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 2 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
        (1, Txn.Ev_begin { attempt = 1 });
        (1, rd 7 1);
        (1, wr 7 2);
        (1, Txn.Ev_commit);
      ]
  in
  Alcotest.(check bool) "clean" true (v = None)

let test_oracle_lost_update () =
  (* Interleaved read-modify-writes that both commit: the classic lost
     update the stale-locked-read rule exists for. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 1 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (1, Txn.Ev_begin { attempt = 1 });
        (1, rd 7 0);
        (1, wr 7 1);
        (1, Txn.Ev_commit);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  match v with
  | Some { kind = "stale-locked-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "lost update not detected"

let test_oracle_zombie_legal_when_aborted () =
  (* A zombie repeat-read in an attempt that aborts is legal under
     Committed_only but a violation under All_attempts. *)
  let events =
    [
      (0, Txn.Ev_begin { attempt = 1 });
      (0, rd 7 0);
      (1, Txn.Ev_begin { attempt = 1 });
      (1, rd 7 0);
      (1, wr 7 5);
      (1, Txn.Ev_commit);
      (0, rd 7 5);
      (* inconsistent with the first read *)
      (0, Txn.Ev_abort { user = false });
    ]
  in
  let relaxed =
    run_oracle ~final:(fun a -> if a = 7 then 5 else 0) events
  in
  Alcotest.(check bool) "legal when aborted" true (relaxed = None);
  match
    run_oracle ~strictness:Oracle.All_attempts
      ~final:(fun a -> if a = 7 then 5 else 0)
      events
  with
  | Some { kind = "repeat-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "strict mode missed the zombie read"

let test_oracle_zombie_illegal_when_committed () =
  (* The same inconsistent repeat-read inside a COMMITTED attempt is a
     violation in every mode. *)
  let events =
    [
      (0, Txn.Ev_begin { attempt = 1 });
      (0, rd 7 0);
      (1, Txn.Ev_begin { attempt = 1 });
      (1, rd 7 0);
      (1, wr 7 5);
      (1, Txn.Ev_commit);
      (0, rd 7 5);
      (0, Txn.Ev_commit);
    ]
  in
  match run_oracle ~final:(fun a -> if a = 7 then 5 else 0) events with
  | Some { kind = "repeat-read"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "committed zombie read not detected"

let test_oracle_read_own_write () =
  let v =
    run_oracle
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, wr 7 3);
        (0, rd 7 9);
        (* should have been 3 *)
        (0, Txn.Ev_abort { user = false });
      ]
  in
  match v with
  | Some { kind = "read-own-write"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "read-own-write not detected"

let test_oracle_partial_abort_rollback () =
  (* A nested scope's writes roll back on partial abort; the retained
     lock makes the subsequent re-read exempt, and commit applies only
     the outer write. *)
  let v =
    run_oracle
      ~final:(fun a -> if a = 7 then 1 else 0)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, rd 7 0);
        (0, Txn.Ev_scope_begin);
        (0, wr 7 1000);
        (0, Txn.Ev_scope_abort);
        (0, rd 7 0);
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  Alcotest.(check bool) "rolled back cleanly" true (v = None)

let test_oracle_final_state () =
  let v =
    run_oracle
      ~final:(fun _ -> 0) (* memory does NOT hold the committed 1 *)
      [
        (0, Txn.Ev_begin { attempt = 1 });
        (0, wr 7 1);
        (0, Txn.Ev_commit);
      ]
  in
  match v with
  | Some { kind = "final-state"; _ } -> ()
  | Some v -> Alcotest.failf "wrong kind: %s" (Oracle.violation_to_string v)
  | None -> Alcotest.fail "final-state divergence not detected"

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)

let test_ddmin () =
  let needed = [ (3, 1); (8, 0) ] in
  let calls = ref 0 in
  let test subset =
    incr calls;
    List.for_all (fun c -> List.mem c subset) needed
  in
  let input = List.init 12 (fun i -> (i, i mod 2)) in
  let out = Minimize.ddmin ~test input in
  Alcotest.(check (list (pair int int)))
    "exactly the needed pair" needed
    (List.sort compare out);
  Alcotest.(check bool) "bounded work" true (!calls <= 400)

let test_ddmin_single () =
  let out = Minimize.ddmin ~test:(fun s -> List.mem (5, 1) s)
      (List.init 30 (fun i -> (i, 1)))
  in
  Alcotest.(check (list (pair int int))) "singleton" [ (5, 1) ] out

(* ------------------------------------------------------------------ *)
(* Clean sweeps: every micro workload × config, three strategies       *)

let test_micros_clean () =
  List.iter
    (fun config ->
      List.iter
        (fun workload ->
          List.iter
            (fun strategy ->
              let r =
                Harness.explore ~workload ~config ~strategy ~runs:40 ~seed:3
                  ()
              in
              if r.Harness.violations > 0 then
                Alcotest.failf "%s" (Harness.report_to_string r);
              Alcotest.(check int)
                (Printf.sprintf "%s/%s/%s truncations" r.Harness.workload
                   r.Harness.config r.Harness.strategy)
                0 r.Harness.truncated)
            [
              Strategy.Random { persist = 85 };
              Strategy.Pct { depth = 3 };
              Strategy.Dfs { preemptions = 2 };
            ])
        (Workloads.micros ~nthreads:2))
    configs

(* ------------------------------------------------------------------ *)
(* The injected bug: caught, minimized small, replayable               *)

let test_injected_bug_caught () =
  let config = Config.with_fault (Some Fault.Skip_validation) tree in
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:200 ~seed:3 ()
  in
  match r.Harness.first with
  | None -> Alcotest.fail "injected validation-skip bug not caught"
  | Some f ->
      Alcotest.(check bool)
        "minimized to at most 10 interventions" true
        (List.length f.Harness.minimized <= 10);
      (* The minimized schedule must still reproduce a violation, from
         nothing but the intervention list. *)
      let again =
        Harness.run_one ~seed:3 ~workload ~config
          (Strategy.replay_control ~interventions:f.Harness.minimized ())
      in
      Alcotest.(check bool)
        "minimized schedule reproduces" true
        (again.Harness.violation <> None)

let test_injected_bug_caught_by_dfs () =
  let config = Config.with_fault (Some Fault.Skip_validation) tree in
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config
      ~strategy:(Strategy.Dfs { preemptions = 2 })
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check bool) "dfs finds it" true (r.Harness.violations > 0)

(* ------------------------------------------------------------------ *)
(* Zombie loop: the trap genuinely fires, and fuel still terminates it *)

let all_strategies =
  [
    Strategy.Random { persist = 85 };
    Strategy.Pct { depth = 3 };
    Strategy.Dfs { preemptions = 2 };
  ]

let test_zombie_trap_fires_and_terminates () =
  (* The micros sweep already proves zombie runs terminate; this probe
     (same shape, plus an OCaml-side flag set on trap entry) proves the
     inconsistent read is actually reached — without that, termination
     would be vacuous. *)
  let trapped = ref false in
  let workload =
    {
      Workloads.name = "zombie-probe";
      nthreads = 2;
      reclaim_oracle = false;
      prepare =
        (fun config ->
          let config = Config.with_fuel 256 config in
          let world =
            Engine.create ~global_words:1024 ~stack_words:256
              ~arena_words:1024 ~nthreads:2
              { config with Config.orec_bits = 10 }
          in
          let arena = Engine.global_arena world in
          let a = Alloc.alloc arena 1 in
          let _spacer = Alloc.alloc arena 8 in
          let b = Alloc.alloc arena 1 in
          let rounds = 3 in
          let body th =
            if Txn.thread_id th = 0 then
              for _ = 1 to rounds do
                Txn.atomic th (fun tx ->
                    Txn.write tx a (Txn.read tx a + 1);
                    Txn.tx_work tx 30;
                    Txn.write tx b (Txn.read tx b + 1))
              done
            else
              for _ = 1 to rounds do
                Txn.atomic th (fun tx ->
                    let x = Txn.read tx a in
                    Txn.tx_work tx 10;
                    let y = Txn.read tx b in
                    if x <> y then begin
                      trapped := true;
                      while true do
                        Txn.tx_work tx 25
                      done
                    end)
              done
          in
          let verify () =
            let m = Captured_stm.Engine.memory world in
            if
              Captured_tmem.Memory.get m a = rounds
              && Captured_tmem.Memory.get m b = rounds
            then Ok ()
            else Error "zombie cells diverged"
          in
          { App.world; body; verify })
    }
  in
  List.iter
    (fun strategy ->
      let r =
        Harness.explore ~workload ~config:tree ~strategy ~runs:200 ~seed:3 ()
      in
      if r.Harness.violations > 0 then
        Alcotest.failf "%s" (Harness.report_to_string r);
      Alcotest.(check int) "no truncations" 0 r.Harness.truncated)
    all_strategies;
  Alcotest.(check bool) "trap entered at least once" true !trapped

(* ------------------------------------------------------------------ *)
(* Structured faults: contained ones stay silent, flagged ones are     *)
(* detected by the oracle                                              *)

let test_contained_faults_stay_contained () =
  List.iter
    (fun fault ->
      if Fault.expectation fault = Fault.Contained then
        let config = Config.with_fault (Some fault) tree in
        List.iter
          (fun workload ->
            let r =
              Harness.explore ~workload ~config
                ~strategy:(Strategy.Random { persist = 85 })
                ~runs:80 ~seed:3 ()
            in
            if r.Harness.violations > 0 then
              Alcotest.failf "fault %s escaped: %s" (Fault.name fault)
                (Harness.report_to_string r))
          [
            Workloads.counter ~nthreads:2 ~incs:3;
            Workloads.publish ~nthreads:2 ~nodes:3;
          ])
    Fault.all

let test_stale_read_flagged () =
  let config = Config.with_fault (Some Fault.Stale_read) tree in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "stale reads flagged" true (r.Harness.violations > 0);
  (* Detected by the oracle, not by an exception escaping a fiber. *)
  match r.Harness.first with
  | Some f ->
      Alcotest.(check bool)
        "not a crash" true
        (f.Harness.violation.Oracle.kind <> "fiber-exception")
  | None -> Alcotest.fail "no first violation recorded"

let test_clock_stall_flagged_under_tv () =
  let config =
    Config.with_fault (Some Fault.Clock_stall) (Config.with_tvalidate tree)
  in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "clock stall flagged" true (r.Harness.violations > 0)

let test_redo_drop_flagged_under_lazy () =
  let config = Config.with_fault (Some Fault.Redo_drop) (Config.with_lazy tree) in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "dropped redo insert flagged" true
    (r.Harness.violations > 0)

let test_publish_partial_flagged_under_lazy () =
  let config =
    Config.with_fault (Some Fault.Publish_partial) (Config.with_lazy tree)
  in
  let r =
    Harness.explore
      ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
      ~config
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool) "partial publish flagged" true
    (r.Harness.violations > 0)

let test_clean_lazy_config_no_false_positive () =
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config:(Config.with_lazy tree)
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check int) "no violations under lazy" 0 r.Harness.violations

let test_clean_config_no_false_positive () =
  (* Identical exploration without the bug: silence. *)
  let workload = Workloads.counter ~nthreads:2 ~incs:3 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:200 ~seed:3 ()
  in
  Alcotest.(check int) "no violations" 0 r.Harness.violations


(* ------------------------------------------------------------------ *)
(* Durable transactions: crash faults recover cleanly, clean +wal      *)
(* sweeps stay silent, and the seeded recovery bug is caught+minimized *)

let crash_fault_kinds =
  [
    Fault.Crash_pre_commit;
    Fault.Crash_mid_publish;
    Fault.Crash_post_publish;
    Fault.Crash_mid_checkpoint;
    Fault.Torn_wal_record;
  ]

(* Whether a commit crashes is drawn from the thread PRNG (world seed),
   not the schedule, so each leg sweeps several world seeds. *)
let crash_world_seeds = [ 3; 34; 65; 96; 127 ]

let test_crash_faults_recover_clean () =
  List.iter
    (fun fault ->
      List.iter
        (fun (mname, mode) ->
          let config =
            tree |> mode
            |> Config.with_fault (Some fault)
            |> Config.with_durable
          in
          let crashes = ref 0 in
          List.iter
            (fun seed ->
              let r =
                Harness.explore
                  ~workload:(Workloads.counter ~nthreads:2 ~incs:3)
                  ~config
                  ~strategy:(Strategy.Random { persist = 85 })
                  ~runs:15 ~seed ()
              in
              crashes := !crashes + r.Harness.crashes;
              if r.Harness.violations > 0 then
                Alcotest.failf "%s/%s: %s" (Fault.name fault) mname
                  (Harness.report_to_string r))
            crash_world_seeds;
          if !crashes = 0 then
            Alcotest.failf "%s/%s: fault never fired (vacuous)"
              (Fault.name fault) mname)
        [ ("eager", fun c -> c); ("lazy", Config.with_lazy ~on:true) ])
    crash_fault_kinds

let test_clean_wal_sweep_silent () =
  (* Every clean durable run is additionally full-replay-checked by the
     recovery oracle inside the harness, so silence here covers both the
     live and the recovery oracle. *)
  List.iter
    (fun (mname, mode) ->
      let config = tree |> mode |> Config.with_durable in
      let r =
        Harness.explore
          ~workload:(Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:3)
          ~config
          ~strategy:(Strategy.Random { persist = 85 })
          ~runs:120 ~seed:3 ()
      in
      if r.Harness.violations > 0 then
        Alcotest.failf "clean +wal (%s): %s" mname
          (Harness.report_to_string r);
      Alcotest.(check int)
        (mname ^ ": no crashes without crash faults")
        0 r.Harness.crashes)
    [
      ("eager", fun c -> c);
      ("lazy+tv",
       fun c -> c |> Config.with_lazy |> Config.with_tvalidate);
    ]

let test_wal_bug_caught_and_minimized () =
  let config =
    tree
    |> Config.with_fault (Some Fault.Torn_wal_record)
    |> Config.with_durable
  in
  let workload = Workloads.bank ~nthreads:2 ~accounts:3 ~transfers:3 in
  let strategy = Strategy.Random { persist = 85 } in
  (* The seeded replay-the-torn-tail bug must be flagged by the recovery
     oracle on some world seed... *)
  let found =
    List.find_map
      (fun seed ->
        let r =
          Harness.explore ~workload ~config ~strategy ~runs:40 ~seed
            ~wal_bug:true ()
        in
        if r.Harness.violations > 0 then Some (seed, r) else None)
      crash_world_seeds
  in
  match found with
  | None -> Alcotest.fail "seeded recovery bug never flagged"
  | Some (seed, r) -> (
      match r.Harness.first with
      | None -> Alcotest.fail "violations counted but none recorded"
      | Some f ->
          (* ...as a recovery violation, delta-debugged to a replayable
             intervention list no longer than the original... *)
          Alcotest.(check bool)
            "recovery-kind violation" true
            (String.length f.Harness.violation.Oracle.kind >= 8
            && String.sub f.Harness.violation.Oracle.kind 0 8 = "recovery");
          Alcotest.(check bool)
            "ddmin did not grow the reproducer" true
            (List.length f.Harness.minimized
            <= List.length f.Harness.interventions);
          let replay =
            Harness.run_one ~workload ~config ~seed ~wal_bug:true
              (Strategy.replay_control ~interventions:f.Harness.minimized ())
          in
          Alcotest.(check bool)
            "minimized reproducer replays" true
            (replay.Harness.violation <> None);
          (* ...and the identical sweep without the bug is silent. *)
          let clean =
            Harness.explore ~workload ~config ~strategy ~runs:40 ~seed ()
          in
          Alcotest.(check int)
            "no violations without the seeded bug" 0 clean.Harness.violations)

(* ------------------------------------------------------------------ *)
(* Epoch-based reclamation: the free-race zombie UAF is red without    *)
(* +ebr (deterministically reproducible from the minimized schedule)   *)
(* and green with it, across config suffixes and 30 world seeds        *)

let test_free_race_red_without_ebr () =
  let workload = Workloads.free_race ~nthreads:2 ~rounds:3 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:200 ~seed:3 ()
  in
  match r.Harness.first with
  | None -> Alcotest.fail "free race never flagged without +ebr"
  | Some f ->
      Alcotest.(check string)
        "flagged as use-after-free" "use-after-free"
        f.Harness.violation.Oracle.kind;
      (* The ddmin-minimized intervention list is a deterministic zombie
         reproducer: replaying it from scratch hits a violation again. *)
      let again =
        Harness.run_one ~seed:3 ~workload ~config:tree
          (Strategy.replay_control ~interventions:f.Harness.minimized ())
      in
      Alcotest.(check bool)
        "minimized schedule reproduces" true
        (again.Harness.violation <> None)

let test_privatize_race_red_without_ebr () =
  let workload = Workloads.privatize_race ~nthreads:2 ~rounds:2 in
  let r =
    Harness.explore ~workload ~config:tree
      ~strategy:(Strategy.Random { persist = 85 })
      ~runs:300 ~seed:3 ()
  in
  Alcotest.(check bool)
    "privatization race flagged without +ebr" true
    (r.Harness.violations > 0)

let test_reclaim_green_with_ebr_torture () =
  (* 30-seed torture: both reclaim micros across config suffixes, all
     with +ebr — zero violations, and non-vacuously so (every cell must
     actually push frees through limbo). *)
  let ebr_configs =
    List.map Config.with_ebr
      [
        tree;
        Config.with_fastpath tree;
        Config.with_tvalidate tree;
        Config.with_tvalidate (Config.with_fastpath tree);
        Config.with_lazy tree;
      ]
  in
  List.iter
    (fun workload ->
      List.iter
        (fun config ->
          let dfrees = ref 0 in
          for seed = 1 to 30 do
            let r =
              Harness.explore ~workload ~config
                ~strategy:(Strategy.Random { persist = 85 })
                ~runs:10 ~seed ~minimize:false ()
            in
            if r.Harness.violations > 0 then
              Alcotest.failf "seed %d: %s" seed (Harness.report_to_string r);
            dfrees := !dfrees + r.Harness.total_dfrees
          done;
          if !dfrees = 0 then
            Alcotest.failf "%s/%s: no deferred frees (vacuous)"
              workload.Workloads.name (Config.name config))
        ebr_configs)
    (Workloads.reclaim_micros ~nthreads:2)

let () =
  Alcotest.run "check"
    [
      ( "scheduler",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "replay fidelity" `Quick test_replay_fidelity;
          Alcotest.test_case "schedules differ" `Quick test_schedules_differ;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean history" `Quick test_oracle_clean_history;
          Alcotest.test_case "lost update" `Quick test_oracle_lost_update;
          Alcotest.test_case "zombie legal when aborted" `Quick
            test_oracle_zombie_legal_when_aborted;
          Alcotest.test_case "zombie illegal when committed" `Quick
            test_oracle_zombie_illegal_when_committed;
          Alcotest.test_case "read own write" `Quick
            test_oracle_read_own_write;
          Alcotest.test_case "partial abort rollback" `Quick
            test_oracle_partial_abort_rollback;
          Alcotest.test_case "final state" `Quick test_oracle_final_state;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "ddmin pair" `Quick test_ddmin;
          Alcotest.test_case "ddmin singleton" `Quick test_ddmin_single;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "micros clean" `Quick test_micros_clean;
          Alcotest.test_case "injected bug caught+minimized" `Quick
            test_injected_bug_caught;
          Alcotest.test_case "injected bug via dfs" `Quick
            test_injected_bug_caught_by_dfs;
          Alcotest.test_case "no false positive" `Quick
            test_clean_config_no_false_positive;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "zombie trap fires and terminates" `Quick
            test_zombie_trap_fires_and_terminates;
          Alcotest.test_case "contained faults stay contained" `Quick
            test_contained_faults_stay_contained;
          Alcotest.test_case "stale-read flagged" `Quick
            test_stale_read_flagged;
          Alcotest.test_case "clock-stall flagged under tv" `Quick
            test_clock_stall_flagged_under_tv;
          Alcotest.test_case "redo-drop flagged under lazy" `Quick
            test_redo_drop_flagged_under_lazy;
          Alcotest.test_case "publish-partial flagged under lazy" `Quick
            test_publish_partial_flagged_under_lazy;
          Alcotest.test_case "crash faults recover clean" `Quick
            test_crash_faults_recover_clean;
          Alcotest.test_case "clean +wal sweep silent" `Quick
            test_clean_wal_sweep_silent;
          Alcotest.test_case "seeded recovery bug caught+minimized" `Quick
            test_wal_bug_caught_and_minimized;
          Alcotest.test_case "clean lazy config silent" `Quick
            test_clean_lazy_config_no_false_positive;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "free race red without +ebr" `Quick
            test_free_race_red_without_ebr;
          Alcotest.test_case "privatize race red without +ebr" `Quick
            test_privatize_race_red_without_ebr;
          Alcotest.test_case "green with +ebr (30-seed torture)" `Slow
            test_reclaim_green_with_ebr_torture;
        ] );
    ]
