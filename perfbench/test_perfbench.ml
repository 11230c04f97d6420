(* Tests of the benchmark's own helpers: order statistics, the
   reportable-percentile rule and the traced run's span pairing. *)

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3. (Summary.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.check close "even" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Summary.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.median: empty")
    (fun () -> ignore (Summary.median []))

(* Expected values computed with Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.check q "1..5" (1.5, 3.0, 4.5) (Summary.quartiles [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check q "1..4" (1.25, 2.5, 3.75) (Summary.quartiles [ 1.; 2.; 3.; 4. ]);
  Alcotest.check q "three" (1.0, 2.0, 3.0) (Summary.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check q "tens" (27.5, 55.0, 82.5)
    (Summary.quartiles (List.init 10 (fun i -> float_of_int (10 * (i + 1)))));
  Alcotest.check q "ties" (2.0, 2.0, 2.0) (Summary.quartiles [ 2.; 2. ]);
  Alcotest.check q "unsorted" (2.5625, 5.25, 7.875)
    (Summary.quartiles [ 7.5; 1.25; 3.0; 9.0; 4.5; 6.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 50. (Summary.percentile xs 50.);
  Alcotest.check close "p99" 99. (Summary.percentile xs 99.);
  Alcotest.check close "p100" 100. (Summary.percentile xs 100.);
  Alcotest.check close "p0 clamps" 1. (Summary.percentile xs 0.)

(* The highest ladder percentile with at least ten samples beyond it. *)
let test_reportable () =
  let r = Alcotest.(option (float 0.)) in
  Alcotest.check r "19 samples: none" None (Summary.reportable_percentile 19);
  Alcotest.check r "20 samples: p50" (Some 50.) (Summary.reportable_percentile 20);
  Alcotest.check r "99 samples: p50" (Some 50.) (Summary.reportable_percentile 99);
  Alcotest.check r "100 samples: p90" (Some 90.) (Summary.reportable_percentile 100);
  Alcotest.check r "999 samples: p90" (Some 90.) (Summary.reportable_percentile 999);
  Alcotest.check r "1000 samples: p99" (Some 99.) (Summary.reportable_percentile 1000);
  Alcotest.check r "10^4 samples: p99.9" (Some 99.9)
    (Summary.reportable_percentile 10_000)

let pair events =
  let codes = Array.of_list (List.map fst events) in
  let stamps = Array.of_list (List.map snd events) in
  Spans.pair ~codes ~stamps ~len:(Array.length codes)

let txn = Alcotest.testable
    (fun ppf t ->
      Format.fprintf ppf "{%d..%d, %d attempts}" t.Spans.start t.Spans.stop
        t.Spans.attempts)
    ( = )

(* begin/abort/begin/commit is one transaction of two attempts, timed
   from its first begin; a user abort closes a transaction without a
   latency; a transaction still open at the end is incomplete. *)
let test_pairing () =
  let p =
    pair
      [
        (1, 0); (Spans.abort, 5); (2, 7); (Spans.commit, 10);
        (1, 12); (Spans.commit, 15);
        (1, 20); (Spans.user_abort, 22);
        (1, 30);
      ]
  in
  Alcotest.(check (list txn)) "committed"
    [ { Spans.start = 0; stop = 10; attempts = 2 };
      { Spans.start = 12; stop = 15; attempts = 1 } ]
    p.Spans.txns;
  Alcotest.(check (list (triple int int bool))) "attempts"
    [ (0, 5, false); (7, 10, true); (12, 15, true); (20, 22, false) ]
    p.Spans.attempt_spans;
  Alcotest.(check int) "user aborts" 1 p.Spans.user_aborts;
  Alcotest.(check int) "incomplete" 1 p.Spans.incomplete

let test_pairing_orphans () =
  (* A commit with nothing open, then a retry whose first attempt was
     never seen: neither yields a latency. *)
  let p = pair [ (Spans.commit, 1); (3, 4); (Spans.commit, 9) ] in
  Alcotest.(check (list txn)) "no latency" [] p.Spans.txns;
  Alcotest.(check int) "incomplete" 2 p.Spans.incomplete;
  (* A first attempt opened over an unfinished one restarts the clock. *)
  let p = pair [ (1, 0); (1, 5); (Spans.commit, 8) ] in
  Alcotest.(check (list txn)) "restart"
    [ { Spans.start = 5; stop = 8; attempts = 1 } ] p.Spans.txns;
  Alcotest.(check int) "dropped" 1 p.Spans.incomplete

let test_tracer_buffers () =
  let bufs = [| Spans.create_buf () |] in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let emit = Spans.tracer ~now bufs 0 in
  for _ = 1 to 5000 do
    emit (Captured_stm.Txn.Ev_begin { attempt = 1 });
    emit (Captured_stm.Txn.Ev_read { addr = 1; value = 0; cls = Instrumented });
    emit (Captured_stm.Txn.Ev_write { addr = 1; value = 0; cls = Elided_heap });
    emit Captured_stm.Txn.Ev_commit
  done;
  let p = Spans.pair_buf bufs.(0) in
  Alcotest.(check int) "every transaction paired" 5000 (List.length p.Spans.txns);
  Alcotest.(check int) "elided" 5000 (Spans.elided bufs);
  Alcotest.(check int) "accesses" 10000 (Spans.accesses bufs)

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "reportable percentile" `Quick test_reportable;
        ] );
      ( "spans",
        [
          Alcotest.test_case "pairing" `Quick test_pairing;
          Alcotest.test_case "orphans" `Quick test_pairing_orphans;
          Alcotest.test_case "tracer buffers" `Quick test_tracer_buffers;
        ] );
    ]
