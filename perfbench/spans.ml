(* The traced run's recorder.  [tracer] is installed through
   [Txn.set_tracer]; it stamps every transaction boundary with the
   monotonic clock into a per-thread buffer and counts barrier events by
   access class.  [pair] turns one thread's boundaries into transaction
   and attempt spans; [write_chrome] writes spans as Chrome trace-event
   JSON when the benchmark ends. *)

module Txn = Captured_stm.Txn

(* Boundary codes.  A begin is stored as its attempt number (>= 1). *)
let commit = 0
let abort = -1
let user_abort = -2

let classes = 5

let class_index : Txn.access_class -> int = function
  | Txn.Instrumented -> 0
  | Txn.Elided_static -> 1
  | Txn.Elided_stack -> 2
  | Txn.Elided_heap -> 3
  | Txn.Elided_private -> 4

type buf = {
  mutable codes : int array;
  mutable stamps : int array;
  mutable len : int;
  reads : int array;  (** barrier events by [class_index] *)
  writes : int array;
}

let create_buf () =
  {
    codes = Array.make 4096 0;
    stamps = Array.make 4096 0;
    len = 0;
    reads = Array.make classes 0;
    writes = Array.make classes 0;
  }

let push b code stamp =
  if b.len = Array.length b.codes then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    b.codes <- grow b.codes;
    b.stamps <- grow b.stamps
  end;
  b.codes.(b.len) <- code;
  b.stamps.(b.len) <- stamp;
  b.len <- b.len + 1

(* One buffer per logical thread.  A thread runs on exactly one domain,
   so each buffer has a single writer, and the run's domain joins order
   those writes before the benchmark reads them. *)
let tracer ~now (bufs : buf array) tid (ev : Txn.event) =
  let b = bufs.(tid) in
  match ev with
  | Txn.Ev_read { cls; _ } ->
      let i = class_index cls in
      b.reads.(i) <- b.reads.(i) + 1
  | Txn.Ev_write { cls; _ } ->
      let i = class_index cls in
      b.writes.(i) <- b.writes.(i) + 1
  | Txn.Ev_begin { attempt } -> push b attempt (now ())
  | Txn.Ev_commit -> push b commit (now ())
  | Txn.Ev_abort { user } -> push b (if user then user_abort else abort) (now ())
  | _ -> ()

(* Barrier events the capture analysis elided, over all threads. *)
let elided bufs =
  Array.fold_left
    (fun acc b ->
      let s = ref acc in
      for i = 1 to classes - 1 do
        s := !s + b.reads.(i) + b.writes.(i)
      done;
      !s)
    0 bufs

let accesses bufs =
  Array.fold_left
    (fun acc b ->
      acc + Array.fold_left ( + ) 0 b.reads + Array.fold_left ( + ) 0 b.writes)
    0 bufs

type txn = { start : int; stop : int; attempts : int }

type paired = {
  txns : txn list;  (** committed transactions, in commit order *)
  attempt_spans : (int * int * bool) list;
      (** (start, stop, committed) of every attempt, in order *)
  user_aborts : int;
  incomplete : int;
      (** boundaries that fit no transaction: a commit or abort with no
          open attempt, a first attempt opened over an unfinished one,
          or a transaction still open at the end *)
}

(* Open transaction: start, current attempt's start, attempt number,
   and whether its first attempt was seen. *)
type opened = { t0 : int; a0 : int; n : int; whole : bool }

let pair ~codes ~stamps ~len =
  let txns = ref [] and spans = ref [] in
  let user = ref 0 and incomplete = ref 0 in
  let cur = ref None in
  for i = 0 to len - 1 do
    let c = codes.(i) and ts = stamps.(i) in
    if c >= 1 then begin
      match !cur with
      | Some o when c > 1 -> cur := Some { o with a0 = ts; n = c }
      | Some _ ->
          incr incomplete;
          cur := Some { t0 = ts; a0 = ts; n = c; whole = true }
      | None -> cur := Some { t0 = ts; a0 = ts; n = c; whole = c = 1 }
    end
    else
      match !cur with
      | None -> incr incomplete
      | Some o ->
          spans := (o.a0, ts, c = commit) :: !spans;
          if c = commit then begin
            if o.whole then
              txns := { start = o.t0; stop = ts; attempts = o.n } :: !txns
            else incr incomplete;
            cur := None
          end
          else if c = user_abort then begin
            incr user;
            cur := None
          end
  done;
  if !cur <> None then incr incomplete;
  {
    txns = List.rev !txns;
    attempt_spans = List.rev !spans;
    user_aborts = !user;
    incomplete = !incomplete;
  }

let pair_buf b = pair ~codes:b.codes ~stamps:b.stamps ~len:b.len

(* A phase of one rep, timed by the benchmark around a library call. *)
type phase = { rep : int; name : string; p0 : int; p1 : int }

(* Chrome trace-event JSON (load it in chrome://tracing or Perfetto):
   one process per rep; the benchmark's phases on lane -1, each logical
   thread's transactions and attempts on its own lane.  Times are µs
   from the first recorded instant. *)
let write_chrome oc ~phases ~(threads : (int * int * paired) list) =
  (* Every transaction runs inside its rep's run phase. *)
  let base = List.fold_left (fun m p -> min m p.p0) max_int phases in
  let us t = float_of_int (t - base) /. 1e3 in
  let first = ref true in
  let event ~name ~pid ~tid ~t0 ~t1 args =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{%s}}"
      name pid tid (us t0) (us t1 -. us t0) args
  in
  output_string oc "{\"traceEvents\":[\n";
  List.iter
    (fun p -> event ~name:p.name ~pid:p.rep ~tid:(-1) ~t0:p.p0 ~t1:p.p1 "")
    phases;
  List.iter
    (fun (rep, tid, p) ->
      List.iter
        (fun t ->
          event ~name:"txn" ~pid:rep ~tid ~t0:t.start ~t1:t.stop
            (Printf.sprintf "\"attempts\":%d" t.attempts))
        p.txns;
      List.iter
        (fun (t0, t1, ok) ->
          event ~name:"attempt" ~pid:rep ~tid ~t0 ~t1
            (Printf.sprintf "\"committed\":%b" ok))
        p.attempt_spans)
    threads;
  output_string oc "\n]}\n"
