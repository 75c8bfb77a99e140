(* Unit and property tests for the generic lock manager. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mode_testable = Alcotest.testable Mode.pp Mode.equal

(* ------------------------------------------------------------- Lock_mode *)

let test_mode_compat_matrix () =
  (* The classical matrix, spelled out row by row (NL row/column all true). *)
  let expect = [
    (Mode.IS, Mode.IS, true); (Mode.IS, Mode.IX, true);
    (Mode.IS, Mode.S, true); (Mode.IS, Mode.SIX, true);
    (Mode.IS, Mode.X, false);
    (Mode.IX, Mode.IX, true); (Mode.IX, Mode.S, false);
    (Mode.IX, Mode.SIX, false); (Mode.IX, Mode.X, false);
    (Mode.S, Mode.S, true); (Mode.S, Mode.SIX, false);
    (Mode.S, Mode.X, false);
    (Mode.SIX, Mode.SIX, false); (Mode.SIX, Mode.X, false);
    (Mode.X, Mode.X, false);
  ] in
  List.iter
    (fun (a, b, compatible) ->
      check_bool
        (Printf.sprintf "%s/%s" (Mode.to_string a) (Mode.to_string b))
        compatible (Mode.compatible a b))
    expect;
  List.iter
    (fun mode ->
      check_bool "NL compatible with all" true (Mode.compatible Mode.NL mode))
    Mode.all

let test_mode_sup_cases () =
  Alcotest.check mode_testable "IX+S=SIX" Mode.SIX (Mode.sup Mode.IX Mode.S);
  Alcotest.check mode_testable "IS+IX=IX" Mode.IX (Mode.sup Mode.IS Mode.IX);
  Alcotest.check mode_testable "S+X=X" Mode.X (Mode.sup Mode.S Mode.X);
  Alcotest.check mode_testable "SIX+IX=SIX" Mode.SIX (Mode.sup Mode.SIX Mode.IX);
  Alcotest.check mode_testable "NL+S=S" Mode.S (Mode.sup Mode.NL Mode.S)

let test_mode_leq () =
  check_bool "IS <= S" true (Mode.leq Mode.IS Mode.S);
  check_bool "IS <= IX" true (Mode.leq Mode.IS Mode.IX);
  check_bool "IX <= SIX" true (Mode.leq Mode.IX Mode.SIX);
  check_bool "S <= SIX" true (Mode.leq Mode.S Mode.SIX);
  check_bool "everything <= X" true (List.for_all (fun m -> Mode.leq m Mode.X) Mode.all);
  check_bool "NL <= everything" true
    (List.for_all (fun m -> Mode.leq Mode.NL m) Mode.all);
  check_bool "S not <= IX" false (Mode.leq Mode.S Mode.IX);
  check_bool "IX not <= S" false (Mode.leq Mode.IX Mode.S)

let test_mode_intention_for () =
  Alcotest.check mode_testable "for S" Mode.IS (Mode.intention_for Mode.S);
  Alcotest.check mode_testable "for IS" Mode.IS (Mode.intention_for Mode.IS);
  Alcotest.check mode_testable "for X" Mode.IX (Mode.intention_for Mode.X);
  Alcotest.check mode_testable "for IX" Mode.IX (Mode.intention_for Mode.IX);
  Alcotest.check mode_testable "for SIX" Mode.IX (Mode.intention_for Mode.SIX);
  Alcotest.check mode_testable "for NL" Mode.NL (Mode.intention_for Mode.NL)

let test_mode_strings () =
  List.iter
    (fun mode ->
      Alcotest.check (Alcotest.option mode_testable) "roundtrip" (Some mode)
        (Mode.of_string (Mode.to_string mode)))
    Mode.all;
  check_bool "bogus" true (Mode.of_string "bogus" = None)

let mode_gen = QCheck.Gen.oneofl Mode.all
let arbitrary_mode = QCheck.make ~print:Mode.to_string mode_gen

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility is symmetric" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.compatible a b = Mode.compatible b a)

let prop_sup_commutative =
  QCheck.Test.make ~name:"sup is commutative" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.equal (Mode.sup a b) (Mode.sup b a))

let prop_sup_associative =
  QCheck.Test.make ~name:"sup is associative" ~count:500
    (QCheck.triple arbitrary_mode arbitrary_mode arbitrary_mode)
    (fun (a, b, c) ->
      Mode.equal (Mode.sup a (Mode.sup b c)) (Mode.sup (Mode.sup a b) c))

let prop_sup_idempotent =
  QCheck.Test.make ~name:"sup is idempotent" ~count:50 arbitrary_mode
    (fun a -> Mode.equal (Mode.sup a a) a)

let prop_sup_upper_bound =
  QCheck.Test.make ~name:"sup is an upper bound" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.leq a (Mode.sup a b) && Mode.leq b (Mode.sup a b))

let prop_stronger_conflicts_more =
  (* If a is compatible with c, any mode below a is compatible with c. *)
  QCheck.Test.make ~name:"compatibility is downward closed" ~count:500
    (QCheck.triple arbitrary_mode arbitrary_mode arbitrary_mode)
    (fun (a, b, c) ->
      QCheck.assume (Mode.leq b a);
      (not (Mode.compatible a c)) || Mode.compatible b c)

(* ------------------------------------------------------------ Lock_table *)

let test_table_grant_and_conflict () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T2 S shares" true
    (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Granted);
  (match Table.request table ~txn:3 ~resource:"r" Mode.X with
   | Table.Waiting blockers ->
     Alcotest.(check (list int)) "blocked by both" [ 1; 2 ] blockers
   | Table.Granted -> Alcotest.fail "X should block");
  check_int "two granted entries" 2 (Table.entry_count table)

let test_table_release_grants_waiter () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.release table ~txn:1 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 2; g_mode; _ } ] ->
     Alcotest.check mode_testable "granted S" Mode.S g_mode
   | _ -> Alcotest.fail "expected T2 granted");
  Alcotest.check mode_testable "T2 holds S" Mode.S
    (Table.held table ~txn:2 ~resource:"r")

let test_table_fifo_fairness () =
  (* S1 granted; X2 waits; a later S3 must not overtake X2. *)
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "X should wait");
  (match Table.request table ~txn:3 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "S3 must queue behind X2");
  let grants = Table.release table ~txn:1 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 2; _ } ] -> ()
   | _ -> Alcotest.fail "X2 first");
  let grants = Table.release table ~txn:2 ~resource:"r" in
  match grants with
  | [ { Table.g_txn = 3; _ } ] -> ()
  | _ -> Alcotest.fail "S3 after X2"

let test_table_conversion () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T1 upgrades to X" true
    (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  Alcotest.check mode_testable "holds X" Mode.X
    (Table.held table ~txn:1 ~resource:"r");
  check_int "one entry only" 1 (Table.entry_count table)

let test_table_conversion_blocks_then_jumps_queue () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T2 S" true (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Granted);
  (* T3 queues for X; then T1's upgrade must be served before T3. *)
  (match Table.request table ~txn:3 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T3 should wait");
  (match Table.request table ~txn:1 ~resource:"r" Mode.X with
   | Table.Waiting blockers -> Alcotest.(check (list int)) "blocked by T2" [ 2 ] blockers
   | Table.Granted -> Alcotest.fail "upgrade must wait for T2");
  let grants = Table.release table ~txn:2 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 1; g_mode; _ } ] ->
     Alcotest.check mode_testable "T1 upgraded" Mode.X g_mode
   | _ -> Alcotest.fail "conversion must jump the queue");
  Alcotest.check mode_testable "T1 holds X" Mode.X
    (Table.held table ~txn:1 ~resource:"r")

let test_table_covered_request_noop () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  check_bool "S under X is covered" true
    (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  Alcotest.check mode_testable "still X" Mode.X
    (Table.held table ~txn:1 ~resource:"r")

let test_table_intention_sharing () =
  let table = Table.create () in
  check_bool "T1 IX" true (Table.request table ~txn:1 ~resource:"r" Mode.IX = Table.Granted);
  check_bool "T2 IX shares" true
    (Table.request table ~txn:2 ~resource:"r" Mode.IX = Table.Granted);
  check_bool "T3 IS shares" true
    (Table.request table ~txn:3 ~resource:"r" Mode.IS = Table.Granted);
  match Table.request table ~txn:4 ~resource:"r" Mode.S with
  | Table.Waiting _ -> ()
  | Table.Granted -> Alcotest.fail "S conflicts with IX"

let test_table_six () =
  let table = Table.create () in
  check_bool "T1 IX+S = SIX" true
    (Table.request table ~txn:1 ~resource:"r" Mode.IX = Table.Granted
     && Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  Alcotest.check mode_testable "holds SIX" Mode.SIX
    (Table.held table ~txn:1 ~resource:"r");
  (match Table.request table ~txn:2 ~resource:"r" Mode.IS with
   | Table.Granted -> ()
   | Table.Waiting _ -> Alcotest.fail "IS compatible with SIX");
  match Table.request table ~txn:3 ~resource:"r" Mode.IX with
  | Table.Waiting _ -> ()
  | Table.Granted -> Alcotest.fail "IX conflicts with SIX"

let test_table_release_all () =
  let table = Table.create () in
  check_bool "a" true (Table.request table ~txn:1 ~resource:"a" Mode.IX = Table.Granted);
  check_bool "b" true (Table.request table ~txn:1 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"b" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.release_all table ~txn:1 in
  check_int "T2 unblocked" 1 (List.length grants);
  check_int "only T2's entry remains" 1 (Table.entry_count table);
  check_bool "T1 holds nothing" true (Table.locks_of table ~txn:1 = [])

let test_table_release_short_keeps_long () =
  let table = Table.create () in
  check_bool "short" true
    (Table.request table ~txn:1 ~resource:"a" Mode.IX = Table.Granted);
  check_bool "long" true
    (Table.request table ~txn:1 ~duration:Table.Long ~resource:"b" Mode.X
     = Table.Granted);
  let (_ : Table.grant list) = Table.release_short table ~txn:1 in
  check_bool "short gone" true
    (Mode.equal Mode.NL (Table.held table ~txn:1 ~resource:"a"));
  Alcotest.check mode_testable "long kept" Mode.X
    (Table.held table ~txn:1 ~resource:"b")

(* A covered [try_request ~duration:Long] makes the lock long, as a covered
   [request] does. *)
let test_table_try_request_refreshes_long () =
  let table = Table.create () in
  check_bool "T1 S short" true
    (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "covered long try" true
    (Table.try_request table ~txn:1 ~duration:Table.Long ~resource:"r" Mode.S
     = `Granted);
  let (_ : Table.grant list) = Table.release_short table ~txn:1 in
  Alcotest.check mode_testable "long kept" Mode.S
    (Table.held table ~txn:1 ~resource:"r")

(* A transaction with a queued conversion may not pass an earlier conversion
   through [try_request]: it is blocked exactly where [request] waits. *)
let test_table_try_request_keeps_queue_order () =
  let table = Table.create () in
  List.iter
    (fun (txn, mode) ->
      check_bool "initial grant" true
        (Table.request table ~txn ~resource:"r" mode = Table.Granted))
    [ (1, Mode.IS); (2, Mode.IS); (3, Mode.IX) ];
  check_bool "T1 queues for X" true
    (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Waiting [ 2; 3 ]);
  check_bool "T2 queues for S" true
    (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Waiting [ 3 ]);
  check_int "T1 still blocked by T2" 0
    (List.length (Table.release table ~txn:3 ~resource:"r"));
  check_bool "try_request blocks behind T1" true
    (Table.try_request table ~txn:2 ~resource:"r" Mode.S = `Would_block [ 1 ]);
  check_bool "request waits behind T1" true
    (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Waiting [ 1 ]);
  Alcotest.check mode_testable "T2 still holds IS" Mode.IS
    (Table.held table ~txn:2 ~resource:"r");
  check_bool "queue unchanged" true
    (Table.waiting_of table ~txn:1 = [ ("r", Mode.X) ]
     && Table.waiting_of table ~txn:2 = [ ("r", Mode.S) ]);
  Alcotest.(check (list string)) "sound" [] (Table.check_invariants table)

let test_table_cancel_wait () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.request table ~txn:3 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (* T2 gives up; T3 still cannot run (T1 holds X), but when T1 releases, T3
     gets the lock directly. *)
  let grants = Table.cancel_wait table ~txn:2 in
  check_int "nothing granted yet" 0 (List.length grants);
  let grants = Table.release table ~txn:1 ~resource:"r" in
  match grants with
  | [ { Table.g_txn = 3; _ } ] -> ()
  | _ -> Alcotest.fail "T3 should be granted after cancel"

let test_table_downgrade () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.downgrade table ~txn:1 ~resource:"r" Mode.S in
  (match grants with
   | [ { Table.g_txn = 2; _ } ] -> ()
   | _ -> Alcotest.fail "downgrade to S should admit T2");
  Alcotest.check mode_testable "T1 now S" Mode.S
    (Table.held table ~txn:1 ~resource:"r")

let test_table_stats () =
  let table = Table.create () in
  let (_ : Table.outcome) = Table.request table ~txn:1 ~resource:"r" Mode.S in
  let (_ : Table.outcome) = Table.request table ~txn:2 ~resource:"r" Mode.X in
  let stats = Table.stats table in
  check_int "requests" 2 stats.Lockmgr.Lock_stats.requests;
  check_int "immediate" 1 stats.Lockmgr.Lock_stats.immediate_grants;
  check_int "waits" 1 stats.Lockmgr.Lock_stats.waits;
  check_bool "conflict tests happened" true
    (stats.Lockmgr.Lock_stats.conflict_tests > 0)

let test_table_peak_entries () =
  let table = Table.create () in
  List.iter
    (fun resource ->
      match Table.request table ~txn:1 ~resource Mode.S with
      | Table.Granted -> ()
      | Table.Waiting _ -> Alcotest.fail "grant expected")
    [ "a"; "b"; "c" ];
  let (_ : Table.grant list) = Table.release_all table ~txn:1 in
  check_int "entries back to 0" 0 (Table.entry_count table);
  check_int "peak saw 3" 3 (Table.peak_entry_count table)

let test_table_waits_for_edges () =
  let table = Table.create () in
  check_bool "T1 X a" true (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  check_bool "T2 X b" true (Table.request table ~txn:2 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:1 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.request table ~txn:2 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let edges = Table.waits_for_edges table in
  check_bool "1 waits for 2" true (List.mem (1, 2) edges);
  check_bool "2 waits for 1" true (List.mem (2, 1) edges)

(* ---------------------------------------------------------------- Deadlock *)

let test_deadlock_simple_cycle () =
  match Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 1) ] with
  | Some cycle ->
    check_bool "both in cycle" true (List.mem 1 cycle && List.mem 2 cycle)
  | None -> Alcotest.fail "cycle expected"

let test_deadlock_no_cycle () =
  check_bool "acyclic" true
    (Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 3); (1, 3) ] = None)

let test_deadlock_long_cycle () =
  match
    Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 3); (3, 4); (4, 1); (2, 5) ]
  with
  | Some cycle -> check_int "cycle of 4" 4 (List.length cycle)
  | None -> Alcotest.fail "cycle expected"

let test_deadlock_victim () =
  check_int "youngest dies" 9 (Lockmgr.Deadlock.choose_victim [ 3; 9; 1 ]);
  check_int "priority override" 1
    (Lockmgr.Deadlock.choose_victim ~priority:(fun txn -> txn) [ 3; 9; 1 ])

let test_deadlock_via_table () =
  (* Classic AB-BA through the real table. *)
  let table = Table.create () in
  let granted outcome = outcome = Table.Granted in
  check_bool "T1 a" true (granted (Table.request table ~txn:1 ~resource:"a" Mode.X));
  check_bool "T2 b" true (granted (Table.request table ~txn:2 ~resource:"b" Mode.X));
  check_bool "T1 waits b" false (granted (Table.request table ~txn:1 ~resource:"b" Mode.X));
  check_bool "T2 waits a" false (granted (Table.request table ~txn:2 ~resource:"a" Mode.X));
  (match Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) with
   | Some _ -> ()
   | None -> Alcotest.fail "deadlock expected");
  (* abort the victim: cancel waits + release; survivor proceeds *)
  let (_ : Table.grant list) = Table.cancel_wait table ~txn:2 in
  let grants = Table.release_all table ~txn:2 in
  check_bool "T1 granted b" true
    (List.exists (fun grant -> grant.Table.g_txn = 1) grants);
  check_bool "no more cycle" true
    (Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) = None)

(* ------------------------------------------------------------------ Policy *)

module Policy = Lockmgr.Policy

let candidate txn birth locks_held work_done =
  { Policy.txn; birth; locks_held; work_done }

let test_policy_choose_victim () =
  let candidates =
    [ candidate 1 10 5 3; candidate 2 30 1 9; candidate 3 20 5 1 ]
  in
  check_int "youngest: largest birth dies" 2
    (Policy.choose_victim Policy.Youngest candidates);
  check_int "oldest: smallest birth dies" 1
    (Policy.choose_victim Policy.Oldest candidates);
  check_int "fewest locks dies" 2
    (Policy.choose_victim Policy.Fewest_locks candidates);
  check_int "least work dies" 3
    (Policy.choose_victim Policy.Least_work candidates);
  (* ties break toward the largest transaction id *)
  check_int "tie -> largest id" 3
    (Policy.choose_victim Policy.Fewest_locks
       [ candidate 1 0 5 0; candidate 3 0 5 0 ])

let test_policy_backoff () =
  check_int "fixed is flat" 50
    (Policy.delay (Policy.Fixed 50) ~restarts:7 ~txn:3);
  let exponential = Policy.Exponential { base = 10; cap = 400; seed = 1 } in
  let delay restarts txn = Policy.delay exponential ~restarts ~txn in
  (* deterministic: same inputs, same jittered delay *)
  check_int "pure" (delay 3 5) (delay 3 5);
  (* jitter stays within [raw/2, raw] and respects the cap *)
  List.iter
    (fun restarts ->
      let raw = min 400 (10 * (1 lsl min restarts 16)) in
      let value = delay restarts 9 in
      check_bool "within band" true (value >= raw / 2 && value <= raw))
    [ 0; 1; 2; 3; 5; 8; 30 ];
  (* different txns desynchronize (at least somewhere in a small range) *)
  check_bool "jitter varies by txn" true
    (List.exists
       (fun txn -> delay 4 txn <> delay 4 (txn + 1))
       [ 1; 2; 3; 4; 5 ])

(* Regression pin for the saturation fix: once [base * 2^restarts] passes the
   cap, every further restart must keep returning cap-band delays — even for
   bases large enough that the multiplication itself would wrap. *)
let test_policy_backoff_saturates () =
  let exponential = Policy.Exponential { base = 100; cap = 800; seed = 3 } in
  let delay restarts = Policy.delay exponential ~restarts ~txn:7 in
  (* the capped sequence: raw envelope 100,200,400,800,800,... and from the
     saturation point on the jittered value itself is pinned *)
  List.iteri
    (fun restarts raw ->
      let value = delay restarts in
      check_bool
        (Printf.sprintf "restart %d in [%d,%d]" restarts (raw / 2) raw)
        true
        (value >= raw / 2 && value <= raw))
    [ 100; 200; 400; 800; 800; 800; 800; 800 ];
  (* beyond the doubling clamp (16) the envelope stays pinned at the cap
     (jitter still varies per restart, but only inside [cap/2, cap]) *)
  List.iter
    (fun restarts ->
      let value = delay restarts in
      check_bool
        (Printf.sprintf "clamped tail restart %d in cap band" restarts)
        true
        (value >= 400 && value <= 800))
    [ 17; 40; 1_000_000 ];
  (* a base that would overflow 63-bit ints after 16 doublings must
     saturate at the cap, not wrap negative *)
  let huge = Policy.Exponential { base = max_int / 8; cap = 500; seed = 1 } in
  List.iter
    (fun restarts ->
      let value = Policy.delay huge ~restarts ~txn:11 in
      check_bool
        (Printf.sprintf "huge base restart %d stays in cap band" restarts)
        true
        (value >= 250 && value <= 500))
    [ 0; 1; 2; 5; 16; 30; 1000 ]

let test_policy_strings () =
  check_bool "detection" true
    (Policy.resolution_of_string "detection" = Ok Policy.Detection);
  check_bool "timeout default" true
    (Policy.resolution_of_string "timeout"
     = Ok (Policy.Timeout Policy.default_timeout));
  check_bool "timeout:250" true
    (Policy.resolution_of_string "timeout:250" = Ok (Policy.Timeout 250));
  check_bool "hybrid:90" true
    (Policy.resolution_of_string "hybrid:90" = Ok (Policy.Hybrid 90));
  check_bool "junk rejected" true
    (match Policy.resolution_of_string "sometimes" with
     | Error _ -> true
     | Ok _ -> false);
  check_bool "victims" true
    (Policy.victim_of_string "fewest-locks" = Ok Policy.Fewest_locks);
  check_bool "fixed backoff" true
    (Policy.backoff_of_string "fixed:30" = Ok (Policy.Fixed 30));
  check_bool "exp backoff" true
    (Policy.backoff_of_string "exp:10:200:7"
     = Ok (Policy.Exponential { base = 10; cap = 200; seed = 7 }));
  check_bool "restart none" true
    (Policy.restart_of_string "none" = Ok Policy.No_restart);
  check_bool "restart wdl default" true
    (Policy.restart_of_string "wdl"
     = Ok (Policy.Wait_depth Policy.default_wait_depth));
  check_bool "restart wdl:2" true
    (Policy.restart_of_string "wdl:2" = Ok (Policy.Wait_depth 2));
  check_bool "restart running-priority" true
    (Policy.restart_of_string "running-priority" = Ok Policy.Running_priority);
  check_bool "restart wdl:0 rejected" true
    (match Policy.restart_of_string "wdl:0" with
     | Error _ -> true
     | Ok _ -> false);
  (* round trips *)
  List.iter
    (fun text ->
      match Policy.resolution_of_string text with
      | Ok resolution ->
        check_bool ("round trip " ^ text) true
          (Policy.resolution_to_string resolution = text)
      | Error message -> Alcotest.fail message)
    [ "detection"; "timeout:250"; "hybrid:90" ];
  List.iter
    (fun text ->
      match Policy.restart_of_string text with
      | Ok restart ->
        check_bool ("round trip " ^ text) true
          (Policy.restart_to_string restart = text)
      | Error message -> Alcotest.fail message)
    [ "none"; "wdl:1"; "wdl:3"; "running-priority" ]

(* ------------------------------------------------- Deadlines and invariants *)

let test_table_deadlines () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~deadline:100 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.request table ~txn:3 ~deadline:200 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  Alcotest.(check (list (pair int string)))
    "nothing expired yet" []
    (Table.expired_waiters table ~now:99);
  Alcotest.(check (list (pair int string)))
    "T2 expires at its deadline"
    [ (2, "a") ]
    (Table.expired_waiters table ~now:100);
  Alcotest.(check (list (pair int string)))
    "both expired later"
    [ (2, "a"); (3, "a") ]
    (Table.expired_waiters table ~now:500);
  (* a granted request never expires *)
  let (_ : Table.grant list) = Table.release_all table ~txn:1 in
  Alcotest.(check (list (pair int string)))
    "granted T2 no longer expires"
    [ (3, "a") ]
    (Table.expired_waiters table ~now:500)

(* A waiter whose deadline expires in the very tick it becomes grantable:
   the grant must win deterministically. After the release grants T2, the
   expiry scan at the same [now] no longer reports it, and a late timeout
   handler calling [cancel_wait] is a harmless no-op. *)
let test_table_expiry_grant_race () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~deadline:100 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (* the tick begins: T2 is expired... *)
  Alcotest.(check (list (pair int string)))
    "expired before the release"
    [ (2, "a") ]
    (Table.expired_waiters table ~now:100);
  (* ...but in the same tick T1 releases, and the grant wins *)
  (match Table.release_all table ~txn:1 with
   | [ grant ] -> check_int "T2 granted" 2 grant.Table.g_txn
   | grants -> Alcotest.failf "expected one grant, got %d" (List.length grants));
  Alcotest.(check (list (pair int string)))
    "granted T2 no longer expires" []
    (Table.expired_waiters table ~now:100);
  Alcotest.(check (list string))
    "sound after the race" []
    (Table.check_invariants table);
  (* a timeout handler that already decided to abort T2 finds nothing to
     cancel and corrupts nothing *)
  Alcotest.(check int)
    "stale cancel_wait is a no-op" 0
    (List.length (Table.cancel_wait table ~txn:2));
  check_bool "T2 still holds a" true
    (Table.held table ~txn:2 ~resource:"a" = Mode.X);
  Alcotest.(check (list string))
    "still sound" [] (Table.check_invariants table)

(* wait_depth measures the longest blocker chain, and cycles stay finite *)
let test_table_wait_depth () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  check_bool "T2 X b" true
    (Table.request table ~txn:2 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T2 should wait on a");
  (match Table.request table ~txn:3 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T3 should wait on b");
  check_int "running T1 has depth 0" 0 (Table.wait_depth table ~txn:1);
  check_int "T2 waits on T1" 1 (Table.wait_depth table ~txn:2);
  check_int "T3 -> T2 -> T1" 2 (Table.wait_depth table ~txn:3);
  (* close the cycle: T1 wants b, so T1 -> T2 -> T1; depth stays finite *)
  (match Table.request table ~txn:1 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T1 should wait on b");
  check_bool "cycle depth finite" true (Table.wait_depth table ~txn:1 <= 3)

let test_table_check_invariants_clean () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"a" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  check_bool "T1 IS b" true
    (Table.request table ~txn:1 ~resource:"b" Mode.IS = Table.Granted);
  Alcotest.(check (list string)) "sound" [] (Table.check_invariants table);
  let (_ : Table.grant list) = Table.release_all table ~txn:1 in
  let (_ : Table.grant list) = Table.release_all table ~txn:2 in
  Alcotest.(check (list string)) "sound after drain" []
    (Table.check_invariants table);
  check_int "empty" 0 (Table.entry_count table)

(* Satellite of the trail-set change: repeated resolution over several
   overlapping cycles must terminate and leave an acyclic graph. *)
let test_deadlock_overlapping_cycles_terminate () =
  let table = Table.create () in
  let granted outcome = outcome = Table.Granted in
  (* T1..T4 each hold their own resource, then everyone wants everyone
     else's in a pattern with overlapping cycles 1-2, 2-3, 3-4, 4-1. *)
  List.iter
    (fun txn ->
      check_bool "own" true
        (granted
           (Table.request table ~txn ~resource:(string_of_int txn) Mode.X)))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun (txn, wanted) ->
      check_bool "waits" false
        (granted (Table.request table ~txn ~resource:wanted Mode.X)))
    [ (1, "2"); (2, "1"); (2, "3"); (3, "2"); (3, "4"); (4, "3"); (4, "1");
      (1, "4") ];
  let rec resolve rounds =
    if rounds > 16 then Alcotest.fail "resolution did not terminate"
    else
      match Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) with
      | None -> rounds
      | Some cycle ->
        let victim = Lockmgr.Deadlock.choose_victim cycle in
        let (_ : Table.grant list) = Table.cancel_wait table ~txn:victim in
        let (_ : Table.grant list) = Table.release_all table ~txn:victim in
        resolve (rounds + 1)
  in
  let rounds = resolve 0 in
  check_bool "took at least one abort" true (rounds >= 1);
  check_bool "acyclic afterwards" true
    (Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) = None);
  Alcotest.(check (list string)) "table still sound" []
    (Table.check_invariants table)

(* on_cycle answers from the requester and counts each expanded
   transaction once in deadlock_visits. *)
let test_deadlock_rooted_search () =
  let table = Table.create () in
  let visits () = (Table.stats table).Lockmgr.Lock_stats.deadlock_visits in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  check_bool "T2 X b" true
    (Table.request table ~txn:2 ~resource:"b" Mode.X = Table.Granted);
  check_bool "T3 S b waits" false
    (Table.request table ~txn:3 ~resource:"b" Mode.S = Table.Granted);
  check_bool "T2 X a waits" false
    (Table.request table ~txn:2 ~resource:"a" Mode.X = Table.Granted);
  let check_blockers label expected txn =
    Alcotest.(check (list int)) label expected (Table.blockers_of table ~txn)
  in
  check_blockers "T2 blocked by T1" [ 1 ] 2;
  check_blockers "T3 blocked by T2" [ 2 ] 3;
  check_blockers "T1 runs" [] 1;
  check_bool "no cycle through T2" false (Table.on_cycle table ~txn:2);
  check_int "expanded T2 and T1" 2 (visits ());
  (* T4 queues on a behind T2; T1 then wants b and closes T1 -> T2 -> T1
     (and T1 -> T3 -> T2 -> T1, since T1 queues behind T3's S) *)
  check_bool "T4 S a waits" false
    (Table.request table ~txn:4 ~resource:"a" Mode.S = Table.Granted);
  check_bool "T1 X b waits" false
    (Table.request table ~txn:1 ~resource:"b" Mode.X = Table.Granted);
  check_blockers "T1 blocked by holder T2 and earlier waiter T3" [ 2; 3 ] 1;
  let before = visits () in
  check_bool "cycle through T1" true (Table.on_cycle table ~txn:1);
  check_int "expanded T1 and T2" 2 (visits () - before);
  check_bool "T3 is on a cycle too" true (Table.on_cycle table ~txn:3);
  check_bool "T4 hangs off the cycle" false (Table.on_cycle table ~txn:4);
  check_bool "global search agrees" true
    (Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) <> None);
  check_blockers "T4 blocked by T1 and T2" [ 1; 2 ] 4

(* Differential check of the requester-rooted deadlock search against the
   global one, on random request / release / cancel / release_all sequences
   over 4 resources and 6 transactions (re-requests on a held resource are
   conversions). After each step a victim of any cycle is released, so the
   graph is acyclic before every request, as [on_cycle] requires. The same
   states also pin [blockers_of] to [waits_for_edges] and [wait_depth] to
   its former edge-list computation. *)
type table_op =
  | Op_request of int * string * Mode.t
  | Op_release of int * string
  | Op_cancel of int
  | Op_release_all of int

let table_txns = [ 1; 2; 3; 4; 5; 6 ]

let print_table_op = function
  | Op_request (txn, resource, mode) ->
    Printf.sprintf "request T%d %s %s" txn resource (Mode.to_string mode)
  | Op_release (txn, resource) -> Printf.sprintf "release T%d %s" txn resource
  | Op_cancel txn -> Printf.sprintf "cancel_wait T%d" txn
  | Op_release_all txn -> Printf.sprintf "release_all T%d" txn

let table_op_gen =
  let open QCheck.Gen in
  let txn = oneofl table_txns and resource = oneofl [ "a"; "b"; "c"; "d" ] in
  frequency
    [ (6, map3 (fun txn resource mode -> Op_request (txn, resource, mode))
            txn resource mode_gen);
      (2, map2 (fun txn resource -> Op_release (txn, resource)) txn resource);
      (1, map (fun txn -> Op_cancel txn) txn);
      (1, map (fun txn -> Op_release_all txn) txn) ]

let arbitrary_table_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) table_op_gen)

let global_cycle table =
  Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table)

let rec break_cycles table =
  match global_cycle table with
  | None -> ()
  | Some cycle ->
    let victim = Lockmgr.Deadlock.choose_victim cycle in
    let (_ : Table.grant list) = Table.release_all table ~txn:victim in
    break_cycles table

let blocker_edges table =
  List.concat_map
    (fun txn ->
      List.map (fun blocker -> (txn, blocker)) (Table.blockers_of table ~txn))
    table_txns
  |> List.sort_uniq compare

(* [wait_depth] as it was computed from the global edge list *)
let reference_wait_depth table txn =
  let edges = Table.waits_for_edges table in
  let successors blocked =
    List.filter_map
      (fun (waiter, blocker) -> if waiter = blocked then Some blocker else None)
      edges
  in
  let rec depth visited t =
    if List.mem t visited then 0
    else
      List.fold_left
        (fun best next -> max best (1 + depth (t :: visited) next))
        0 (successors t)
  in
  depth [] txn

let prop_rooted_search_matches_global =
  QCheck.Test.make ~name:"rooted deadlock search agrees with global"
    ~count:500 arbitrary_table_ops (fun ops ->
      let table = Table.create () in
      List.for_all
        (fun op ->
          let rooted_agrees =
            match op with
            | Op_request (txn, resource, mode) -> (
              match Table.request table ~txn ~resource mode with
              | Table.Granted -> true
              | Table.Waiting _ ->
                Table.on_cycle table ~txn = Option.is_some (global_cycle table))
            | Op_release (txn, resource) ->
              let (_ : Table.grant list) = Table.release table ~txn ~resource in
              true
            | Op_cancel txn ->
              let (_ : Table.grant list) = Table.cancel_wait table ~txn in
              true
            | Op_release_all txn ->
              let (_ : Table.grant list) = Table.release_all table ~txn in
              true
          in
          let edges_agree = blocker_edges table = Table.waits_for_edges table in
          let depths_agree =
            List.for_all
              (fun txn ->
                Table.wait_depth table ~txn = reference_wait_depth table txn)
              table_txns
          in
          break_cycles table;
          rooted_agrees && edges_agree && depths_agree)
        ops)

(* A reference lock table, written from the specification rather than the
   implementation: per resource a holder map txn -> (mode, duration) and a
   FIFO queue with conversions placed after earlier conversions. A request
   for sup(held, mode) is granted atomically iff it is covered, or the
   transaction is not queued there, is a conversion or finds the queue
   empty, and is compatible with the other holders. Everything else queues
   (or, for [try_request], only reports its blockers). Leaving an entry
   serves the queue head while it is compatible. *)
module Reference = struct
  type waiter = {
    txn : int; mode : Mode.t; duration : Table.duration; conversion : bool }

  type entry = {
    mutable holders : (int * (Mode.t * Table.duration)) list;
    mutable queue : waiter list;
  }

  let create () : (string, entry) Hashtbl.t = Hashtbl.create 8

  let entry model resource =
    match Hashtbl.find_opt model resource with
    | Some entry -> entry
    | None ->
      let entry = { holders = []; queue = [] } in
      Hashtbl.replace model resource entry;
      entry

  let queued entry txn =
    List.exists (fun waiter -> waiter.txn = txn) entry.queue

  let grant entry txn mode duration =
    let held =
      match List.assoc_opt txn entry.holders with
      | Some (held, Table.Long) -> (Mode.sup held mode, Table.Long)
      | Some (held, Table.Short) -> (Mode.sup held mode, duration)
      | None -> (mode, duration)
    in
    entry.holders <- (txn, held) :: List.remove_assoc txn entry.holders

  let compatible entry txn mode =
    List.for_all
      (fun (holder, (held, _)) -> holder = txn || Mode.compatible mode held)
      entry.holders

  let rec drain resource entry =
    match entry.queue with
    | head :: rest when compatible entry head.txn head.mode ->
      entry.queue <- rest;
      grant entry head.txn head.mode head.duration;
      (head.txn, resource, head.mode) :: drain resource entry
    | _ -> []

  let request model ~queue ~txn ~duration resource mode =
    let entry = entry model resource in
    let current =
      Option.fold ~none:Mode.NL ~some:fst (List.assoc_opt txn entry.holders)
    in
    let target = Mode.sup current mode and conversion = current <> Mode.NL in
    if Mode.equal target current then begin
      if duration = Table.Long then grant entry txn current Table.Long;
      Ok ()
    end
    else if
      (not (queued entry txn))
      && (conversion || entry.queue = [])
      && compatible entry txn target
    then Ok (grant entry txn target duration)
    else begin
      let others = List.filter (fun txn' -> txn' <> txn) in
      let blockers =
        match
          others
            (List.filter_map
               (fun (holder, (held, _)) ->
                 if Mode.compatible target held then None else Some holder)
               entry.holders)
        with
        | [] -> others (List.map (fun waiter -> waiter.txn) entry.queue)
        | holders -> holders
      in
      if queue && not (queued entry txn) then begin
        let waiter = { txn; mode = target; duration; conversion } in
        let conversions, plain =
          List.partition (fun waiter -> waiter.conversion) entry.queue
        in
        entry.queue <-
          (if conversion then conversions @ (waiter :: plain)
           else entry.queue @ [ waiter ])
      end;
      Error (List.sort_uniq Int.compare blockers)
    end

  let leave model ~txn ~wait ~drop resource =
    let entry = entry model resource in
    let left_queue = wait && queued entry txn in
    let left_group =
      match List.assoc_opt txn entry.holders with
      | Some (_, duration) -> drop duration
      | None -> false
    in
    if left_queue then
      entry.queue <- List.filter (fun waiter -> waiter.txn <> txn) entry.queue;
    if left_group then entry.holders <- List.remove_assoc txn entry.holders;
    if left_queue || left_group then drain resource entry else []

  let resources_of model txn =
    Hashtbl.fold
      (fun resource entry accu ->
        if List.mem_assoc txn entry.holders || queued entry txn then
          resource :: accu
        else accu)
      model []
    |> List.sort String.compare

  let leave_all model ~txn ~wait ~drop =
    List.concat_map (leave model ~txn ~wait ~drop) (resources_of model txn)

  let downgrade model ~txn resource mode =
    let entry = entry model resource in
    match List.assoc_opt txn entry.holders with
    | Some (held, duration) when not (Mode.leq held mode) ->
      entry.holders <-
        (txn, (mode, duration)) :: List.remove_assoc txn entry.holders;
      drain resource entry
    | _ -> []

  let locks_of model txn =
    Hashtbl.fold
      (fun resource entry accu ->
        match List.assoc_opt txn entry.holders with
        | Some (mode, duration) -> (resource, mode, duration) :: accu
        | None -> accu)
      model []
    |> List.sort compare

  let waiting_of model txn =
    Hashtbl.fold
      (fun resource entry accu ->
        List.filter_map
          (fun waiter ->
            if waiter.txn = txn then Some (resource, waiter.mode) else None)
          entry.queue
        @ accu)
      model []
    |> List.sort compare
end

type oracle_op =
  | Request of int * Table.duration * string * Mode.t
  | Try_request of int * Table.duration * string * Mode.t
  | Release of int * string
  | Downgrade of int * string * Mode.t
  | Cancel_wait of int
  | Release_all of int
  | Release_short of int

let print_oracle_op =
  let duration = function Table.Long -> " long" | Table.Short -> "" in
  function
  | Request (txn, d, resource, mode) ->
    Printf.sprintf "request T%d %s %s%s" txn resource (Mode.to_string mode)
      (duration d)
  | Try_request (txn, d, resource, mode) ->
    Printf.sprintf "try_request T%d %s %s%s" txn resource (Mode.to_string mode)
      (duration d)
  | Release (txn, resource) -> Printf.sprintf "release T%d %s" txn resource
  | Downgrade (txn, resource, mode) ->
    Printf.sprintf "downgrade T%d %s %s" txn resource (Mode.to_string mode)
  | Cancel_wait txn -> Printf.sprintf "cancel_wait T%d" txn
  | Release_all txn -> Printf.sprintf "release_all T%d" txn
  | Release_short txn -> Printf.sprintf "release_short T%d" txn

(* Requests and downgrades use the real modes only: the table's callers
   never ask for NL, and a downgrade always names a weaker mode (the
   harness below skips the others). *)
let oracle_op_gen =
  let open QCheck.Gen in
  let txn = oneofl table_txns and resource = oneofl [ "a"; "b"; "c"; "d" ] in
  let mode = oneofl (List.filter (fun mode -> mode <> Mode.NL) Mode.all) in
  let duration =
    frequency [ (3, return Table.Short); (1, return Table.Long) ]
  in
  let asked make = map4 make txn duration resource mode in
  frequency
    [ (8, asked (fun t d r m -> Request (t, d, r, m)));
      (3, asked (fun t d r m -> Try_request (t, d, r, m)));
      (3, map2 (fun t r -> Release (t, r)) txn resource);
      (1, map3 (fun t r m -> Downgrade (t, r, m)) txn resource mode);
      (1, map (fun t -> Cancel_wait t) txn);
      (1, map (fun t -> Release_all t) txn);
      (1, map (fun t -> Release_short t) txn) ]

let arbitrary_oracle_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_oracle_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 500 700) oracle_op_gen)

(* Runs one operation on both tables; [Some] describes the first
   disagreement. *)
let oracle_step table model op =
  let grants served =
    List.map
      (fun { Table.g_txn; g_resource; g_mode } -> (g_txn, g_resource, g_mode))
      served
  in
  let outcome = function
    | Ok () -> "granted"
    | Error blockers ->
      "blocked by " ^ String.concat "," (List.map string_of_int blockers)
  in
  let served = function
    | [] -> "nothing"
    | grants ->
      String.concat ","
        (List.map
           (fun (txn, resource, mode) ->
             Printf.sprintf "T%d:%s:%s" txn resource (Mode.to_string mode))
           grants)
  in
  let compare_with show actual expected =
    if actual = expected then None
    else
      Some
        (Printf.sprintf "table %s, reference %s" (show actual) (show expected))
  in
  let step =
    match op with
    | Request (txn, duration, resource, mode) ->
      let actual =
        match Table.request table ~txn ~duration ~resource mode with
        | Table.Granted -> Ok ()
        | Table.Waiting blockers -> Error blockers
      in
      compare_with outcome actual
        (Reference.request model ~queue:true ~txn ~duration resource mode)
    | Try_request (txn, duration, resource, mode) ->
      let actual =
        match Table.try_request table ~txn ~duration ~resource mode with
        | `Granted -> Ok ()
        | `Would_block blockers -> Error blockers
      in
      compare_with outcome actual
        (Reference.request model ~queue:false ~txn ~duration resource mode)
    | Release (txn, resource) ->
      compare_with served
        (grants (Table.release table ~txn ~resource))
        (Reference.leave model ~txn ~wait:false ~drop:(fun _ -> true) resource)
    | Downgrade (txn, resource, mode) ->
      let held = Table.held table ~txn ~resource in
      if Mode.leq mode held && not (Mode.equal mode held) then
        compare_with served
          (grants (Table.downgrade table ~txn ~resource mode))
          (Reference.downgrade model ~txn resource mode)
      else None
    | Cancel_wait txn ->
      compare_with served
        (grants (Table.cancel_wait table ~txn))
        (Reference.leave_all model ~txn ~wait:true ~drop:(fun _ -> false))
    | Release_all txn ->
      compare_with served
        (grants (Table.release_all table ~txn))
        (Reference.leave_all model ~txn ~wait:true ~drop:(fun _ -> true))
    | Release_short txn ->
      compare_with served
        (grants (Table.release_short table ~txn))
        (Reference.leave_all model ~txn ~wait:true
           ~drop:(fun duration -> duration = Table.Short))
  in
  let views_differ =
    List.find_opt
      (fun txn ->
        Table.locks_of table ~txn <> Reference.locks_of model txn
        || Table.waiting_of table ~txn <> Reference.waiting_of model txn)
      table_txns
  in
  match step, views_differ, Table.check_invariants table with
  | Some difference, _, _ -> Some difference
  | None, Some txn, _ ->
    Some (Printf.sprintf "locks or waits of T%d differ" txn)
  | None, None, (_ :: _ as violations) -> Some (String.concat "; " violations)
  | None, None, [] -> None

let prop_table_matches_reference =
  QCheck.Test.make ~name:"lock table agrees with the reference table"
    ~count:100 arbitrary_oracle_ops (fun ops ->
      let table = Table.create () and model = Reference.create () in
      let rec run index = function
        | [] -> true
        | op :: rest -> (
          match oracle_step table model op with
          | None -> run (index + 1) rest
          | Some difference ->
            QCheck.Test.fail_reportf "op %d (%s): %s" index (print_oracle_op op)
              difference)
      in
      run 0 ops)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compat_symmetric; prop_sup_commutative; prop_sup_associative;
      prop_sup_idempotent; prop_sup_upper_bound; prop_stronger_conflicts_more ]

let () =
  Alcotest.run "lockmgr"
    [ ("lock_mode",
       [ Alcotest.test_case "compatibility matrix" `Quick
           test_mode_compat_matrix;
         Alcotest.test_case "sup cases" `Quick test_mode_sup_cases;
         Alcotest.test_case "leq" `Quick test_mode_leq;
         Alcotest.test_case "intention_for" `Quick test_mode_intention_for;
         Alcotest.test_case "strings" `Quick test_mode_strings ]);
      ("lock_mode_properties", qcheck_cases);
      ("lock_table",
       [ Alcotest.test_case "grant and conflict" `Quick
           test_table_grant_and_conflict;
         Alcotest.test_case "release grants waiter" `Quick
           test_table_release_grants_waiter;
         Alcotest.test_case "fifo fairness" `Quick test_table_fifo_fairness;
         Alcotest.test_case "conversion" `Quick test_table_conversion;
         Alcotest.test_case "conversion jumps queue" `Quick
           test_table_conversion_blocks_then_jumps_queue;
         Alcotest.test_case "covered request" `Quick
           test_table_covered_request_noop;
         Alcotest.test_case "intention sharing" `Quick
           test_table_intention_sharing;
         Alcotest.test_case "SIX" `Quick test_table_six;
         Alcotest.test_case "release_all" `Quick test_table_release_all;
         Alcotest.test_case "release_short keeps long" `Quick
           test_table_release_short_keeps_long;
         Alcotest.test_case "try_request refreshes long" `Quick
           test_table_try_request_refreshes_long;
         Alcotest.test_case "try_request keeps queue order" `Quick
           test_table_try_request_keeps_queue_order;
         Alcotest.test_case "cancel_wait" `Quick test_table_cancel_wait;
         Alcotest.test_case "downgrade" `Quick test_table_downgrade;
         Alcotest.test_case "stats" `Quick test_table_stats;
         Alcotest.test_case "peak entries" `Quick test_table_peak_entries;
         Alcotest.test_case "deadlines" `Quick test_table_deadlines;
         Alcotest.test_case "expiry/grant race" `Quick
           test_table_expiry_grant_race;
         Alcotest.test_case "wait_depth" `Quick test_table_wait_depth;
         Alcotest.test_case "check_invariants clean" `Quick
           test_table_check_invariants_clean;
         Alcotest.test_case "waits_for edges" `Quick
           test_table_waits_for_edges;
         QCheck_alcotest.to_alcotest prop_table_matches_reference ]);
      ("deadlock",
       [ Alcotest.test_case "simple cycle" `Quick test_deadlock_simple_cycle;
         Alcotest.test_case "no cycle" `Quick test_deadlock_no_cycle;
         Alcotest.test_case "long cycle" `Quick test_deadlock_long_cycle;
         Alcotest.test_case "victim" `Quick test_deadlock_victim;
         Alcotest.test_case "via table" `Quick test_deadlock_via_table;
         Alcotest.test_case "overlapping cycles terminate" `Quick
           test_deadlock_overlapping_cycles_terminate;
         Alcotest.test_case "rooted search" `Quick test_deadlock_rooted_search;
         QCheck_alcotest.to_alcotest prop_rooted_search_matches_global ]);
      ("policy",
       [ Alcotest.test_case "choose_victim" `Quick test_policy_choose_victim;
         Alcotest.test_case "backoff" `Quick test_policy_backoff;
         Alcotest.test_case "backoff saturates" `Quick
           test_policy_backoff_saturates;
         Alcotest.test_case "strings" `Quick test_policy_strings ]) ]
