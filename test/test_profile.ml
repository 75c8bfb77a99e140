(* Tests for the contention profiler: exact blocked-time attribution over a
   hand-built event stream, abort taxonomy, critical-path chaining,
   Run_meta trace splitting, and the JSONL encode/decode round-trip
   (including wait-for snapshots). *)

module Event = Obs.Event
module Profile = Obs.Profile
module Spans = Obs.Spans

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let at time kind = { Event.time; kind }
let blu = Some { Event.lu_kind = "BLU"; lu_depth = 5 }
let holu = Some { Event.lu_kind = "HoLU"; lu_depth = 3 }

let wait ?(lu = None) ?(blockers = [ 99 ]) ?(holders = []) txn resource mode =
  Event.Lock_waited { txn; resource; mode; blockers; lu; holders }

let grant ?(lu = None) ?(immediate = false) ?(holders = []) txn resource mode =
  Event.Lock_granted { txn; resource; mode; immediate; lu; holders }

(* Three waits with known durations and granules:
   - T1 waits 20 ticks for BLU db/a (X over T2's S), granted
   - T3 waits 25 ticks for HoLU db/b (queue rule), aborted as a victim
   - T2 waits for an untagged db/c and is still queued at stream end
     (10 ticks to the last timestamp) *)
let attribution_events =
  [ at 0.0 (Event.Txn_begin { txn = 1 });
    at 1.0 (grant ~lu:blu ~immediate:true 2 "db/a" "S");
    at 10.0 (wait ~lu:blu ~blockers:[ 2 ] 1 "db/a" "X");
    at 15.0 (wait ~lu:holu ~blockers:[ 4 ] 3 "db/b" "S");
    at 30.0 (grant ~lu:blu 1 "db/a" "X");
    at 40.0 (Event.Victim_aborted { txn = 3; restarts = 1 });
    at 40.0 (Event.Txn_abort { txn = 3; reason = "deadlock_victim" });
    at 50.0 (wait ~blockers:[ 1 ] 2 "db/c" "X");
    at 60.0 (Event.Txn_commit { txn = 1 }) ]

let test_exact_attribution () =
  let report = Profile.of_events ~label:"unit" attribution_events in
  check_float "total blocked" 55.0 report.Profile.total_blocked;
  check_int "wait count" 3 report.Profile.wait_count;
  check_int "unfinished" 1 report.Profile.unfinished;
  let sum_spans =
    List.fold_left
      (fun acc span -> acc +. Spans.duration span)
      0.0 report.Profile.spans
  in
  check_float "spans sum to total" report.Profile.total_blocked sum_spans;
  let level name =
    List.find (fun l -> String.equal l.Profile.v_level name)
      report.Profile.levels
  in
  check_float "HoLU blocked" 25.0 (level "HoLU").Profile.v_blocked;
  check_float "BLU blocked" 20.0 (level "BLU").Profile.v_blocked;
  check_float "untagged blocked" 10.0 (level "untagged").Profile.v_blocked;
  let levels_sum =
    List.fold_left
      (fun acc l -> acc +. l.Profile.v_blocked)
      0.0 report.Profile.levels
  in
  check_float "levels partition the total" report.Profile.total_blocked
    levels_sum;
  let resources_sum =
    List.fold_left
      (fun acc r -> acc +. r.Profile.r_blocked)
      0.0 report.Profile.resources
  in
  check_float "resources partition the total" report.Profile.total_blocked
    resources_sum;
  let matrix_sum =
    List.fold_left
      (fun acc cell -> acc +. cell.Profile.c_blocked)
      0.0 report.Profile.matrix
  in
  check_float "matrix partitions the total" report.Profile.total_blocked
    matrix_sum;
  (* tagged-only depth table: 25 at depth 3, 20 at depth 5 *)
  let depth d =
    List.find (fun s -> s.Profile.d_depth = d) report.Profile.depths
  in
  check_float "depth 3" 25.0 (depth 3).Profile.d_blocked;
  check_float "depth 5" 20.0 (depth 5).Profile.d_blocked

let test_outcomes_and_matrix () =
  let report = Profile.of_events attribution_events in
  let span_for txn =
    List.find (fun s -> s.Spans.s_txn = txn) report.Profile.spans
  in
  check_bool "T1 granted" true ((span_for 1).Spans.s_outcome = Spans.Granted);
  check_bool "T3 aborted as deadlock victim" true
    ((span_for 3).Spans.s_outcome = Spans.Aborted "deadlock");
  check_bool "T2 unfinished" true
    ((span_for 2).Spans.s_outcome = Spans.Unfinished);
  (* the Txn_abort{deadlock_victim} echo must not double-count the abort *)
  Alcotest.(check (list (pair string int)))
    "abort taxonomy" [ ("deadlock", 1) ] report.Profile.aborts;
  let cell waiter holder =
    List.find
      (fun c ->
        String.equal c.Profile.c_waiter waiter
        && String.equal c.Profile.c_holder holder)
      report.Profile.matrix
  in
  check_float "X blocked by S" 20.0 (cell "X" "S").Profile.c_blocked;
  check_float "S blocked by the queue rule" 25.0
    (cell "S" "queue").Profile.c_blocked;
  check_float "X with no recorded holder" 10.0
    (cell "X" "queue").Profile.c_blocked

let test_timeout_taxonomy () =
  let events =
    [ at 0.0 (wait ~blockers:[ 2 ] 1 "r" "X");
      at 100.0
        (Event.Timeout_abort { txn = 1; resource = "r"; waited = 100; lu = None });
      at 100.0 (Event.Txn_abort { txn = 1; reason = "timeout_victim" });
      at 120.0 (Event.Txn_abort { txn = 9; reason = "user" }) ]
  in
  let report = Profile.of_events events in
  check_float "timed-out wait attributed" 100.0 report.Profile.total_blocked;
  Alcotest.(check (list (pair string int)))
    "taxonomy keeps timeout and user causes"
    [ ("timeout", 1); ("user", 1) ]
    report.Profile.aborts

(* T1 waits on r1 for [0,100] blocked by T2; T2 waits on r2 for [10,60]:
   T1's critical chain is its own 100 plus the overlapping 50. *)
let test_critical_path () =
  let events =
    [ at 0.0 (wait ~blockers:[ 2 ] 1 "r1" "X");
      at 10.0 (wait ~blockers:[ 3 ] 2 "r2" "X");
      at 60.0 (grant 2 "r2" "X");
      at 100.0 (grant 1 "r1" "X") ]
  in
  let report = Profile.of_events events in
  let path txn =
    List.find (fun p -> p.Profile.t_txn = txn) report.Profile.txns
  in
  check_float "T1 blocked" 100.0 (path 1).Profile.t_blocked;
  check_float "T1 critical chain" 150.0 (path 1).Profile.t_critical;
  Alcotest.(check (list (pair string (float 1e-9))))
    "T1 walks through T2's wait"
    [ ("r1", 100.0); ("r2", 50.0) ]
    (List.map
       (fun step -> (step.Profile.p_resource, step.Profile.p_blocked))
       (path 1).Profile.t_path);
  check_float "T2 critical chain" 50.0 (path 2).Profile.t_critical;
  check_bool "sorted by critical time" true
    (match report.Profile.txns with
     | first :: _ -> first.Profile.t_txn = 1
     | [] -> false)

(* Every report table must order ties deterministically (satellite of the
   blame PR): equal blocked time falls back to the level / resource /
   matrix-cell / txn key, so [colock analyze --top] output never depends
   on hashtable iteration order. *)
let test_deterministic_ties () =
  let events =
    [ at 0.0 (wait ~lu:holu ~blockers:[ 9 ] 1 "r/b" "X");
      at 0.0 (wait ~lu:blu ~blockers:[ 9 ] 2 "r/a" "S");
      at 10.0 (grant ~lu:holu 1 "r/b" "X");
      at 10.0 (grant ~lu:blu 2 "r/a" "S") ]
  in
  let report = Profile.of_events events in
  Alcotest.(check (list string))
    "levels tie-break by level name" [ "BLU"; "HoLU" ]
    (List.map (fun l -> l.Profile.v_level) report.Profile.levels);
  Alcotest.(check (list string))
    "resources tie-break by resource" [ "r/a"; "r/b" ]
    (List.map (fun r -> r.Profile.r_resource) report.Profile.resources);
  Alcotest.(check (list (pair string string)))
    "matrix tie-breaks by waiter then holder"
    [ ("S", "queue"); ("X", "queue") ]
    (List.map
       (fun c -> (c.Profile.c_waiter, c.Profile.c_holder))
       report.Profile.matrix);
  Alcotest.(check (list int))
    "critical paths tie-break by txn" [ 1; 2 ]
    (List.map (fun t -> t.Profile.t_txn) report.Profile.txns)

let test_of_trace_splits_runs () =
  let reports =
    Profile.of_trace
      [ at 0.0 (Event.Run_meta { label = "alpha" });
        at 0.0 (wait ~blockers:[ 2 ] 1 "r" "X");
        at 30.0 (grant 1 "r" "X");
        at 0.0 (Event.Run_meta { label = "beta" });
        at 5.0 (wait ~blockers:[ 1 ] 2 "q" "S") ]
  in
  check_int "two runs" 2 (List.length reports);
  (match reports with
   | [ alpha; beta ] ->
     check_string "first label" "alpha"
       (Option.value ~default:"?" alpha.Profile.label);
     check_float "alpha blocked" 30.0 alpha.Profile.total_blocked;
     check_string "second label" "beta"
       (Option.value ~default:"?" beta.Profile.label);
     check_int "beta wait is unfinished" 1 beta.Profile.unfinished
   | _ -> Alcotest.fail "expected exactly two reports");
  check_int "snapshot counters start at zero" 0
    (List.hd reports).Profile.snapshots

let test_snapshot_stats () =
  let events =
    [ at 0.0 (wait ~blockers:[ 2 ] 1 "r" "X");
      at 10.0 (Event.Waits_for { edges = [ (1, 2) ] });
      at 20.0 (Event.Waits_for { edges = [ (1, 2); (3, 1); (4, 1) ] });
      at 30.0 (grant 1 "r" "X") ]
  in
  let report = Profile.of_events events in
  check_int "snapshots counted" 2 report.Profile.snapshots;
  check_int "peak edges" 3 report.Profile.peak_wait_edges

(* ----------------------------------------------------- JSONL round-trip *)

let roundtrip_events =
  [ at 0.0 (Event.Run_meta { label = "rt" });
    at 1.5 (Event.Txn_begin { txn = 1 });
    at 2.0 (Event.Lock_requested { txn = 1; resource = "db/a"; mode = "IX"; lu = blu });
    at 3.0 (grant ~lu:blu ~immediate:true 1 "db/a" "IX");
    at 4.0
      (wait ~lu:holu ~blockers:[ 7; 8 ]
         ~holders:
           [ { Event.h_txn = 7; h_mode = "S"; h_lu = holu };
             { Event.h_txn = 8; h_mode = "S"; h_lu = None } ]
         2 "db/b" "X");
    at 4.5
      (grant ~lu:holu
         ~holders:[ { Event.h_txn = 7; h_mode = "S"; h_lu = holu } ]
         3 "db/b" "S");
    at 5.0
      (Event.Conversion
         { txn = 1; resource = "db/a"; from_mode = "IX"; to_mode = "X"; lu = blu });
    at 6.0 (Event.Lock_released { txn = 1; resource = "db/a"; lu = blu });
    at 7.0
      (Event.Escalation
         { txn = 1; node = "db/a"; mode = "X"; released_children = 3 });
    at 8.0 (Event.Deescalation { txn = 1; node = "db/a"; mode = "IX" });
    at 9.0 (Event.Deadlock_detected { cycle = [ 1; 2; 3 ] });
    at 10.0 (Event.Victim_aborted { txn = 2; restarts = 4 });
    at 11.0
      (Event.Timeout_abort { txn = 3; resource = "db/c"; waited = 42; lu = None });
    at 12.0 (Event.Txn_abort { txn = 3; reason = "timeout_victim" });
    at 13.0
      (Event.Query_executed
         { txn = 1; query = "SELECT \"x\""; rows = 2; locks_requested = 5 });
    at 14.0 (Event.Sim_step { txn = 1; step = 9 });
    at 15.0 (Event.Waits_for { edges = [ (1, 2); (3, 4) ] });
    at 16.0 (Event.Txn_commit { txn = 1 }) ]

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "colock_profile" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let channel = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out channel)
        (fun () -> Obs.Jsonl.write_events channel roundtrip_events);
      let decoded, errors = Obs.Jsonl.load path in
      Alcotest.(check (list string)) "no decode errors" [] errors;
      check_int "all events back" (List.length roundtrip_events)
        (List.length decoded);
      List.iter2
        (fun original event ->
          check_string "identical re-encoding"
            (Obs.Json.to_string (Event.to_json original))
            (Obs.Json.to_string (Event.to_json event)))
        roundtrip_events decoded)

let test_snapshot_roundtrip () =
  let original = at 7.5 (Event.Waits_for { edges = [ (5, 6); (6, 7) ] }) in
  match Event.of_json (Event.to_json original) with
  | Error message -> Alcotest.fail message
  | Ok decoded -> (
    check_float "time survives" 7.5 decoded.Event.time;
    match decoded.Event.kind with
    | Event.Waits_for { edges } ->
      Alcotest.(check (list (pair int int)))
        "edges survive" [ (5, 6); (6, 7) ] edges
    | _ -> Alcotest.fail "decoded into a different kind")

let test_malformed_lines_are_diagnosed () =
  let path = Filename.temp_file "colock_profile" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let channel = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out channel)
        (fun () ->
          output_string channel
            "{\"event\": \"txn_begin\",\"time\": 0,\"txn\": 1}\n\
             not json at all\n\
             \n\
             {\"event\": \"no_such_kind\",\"time\": 1}\n");
      let events, errors = Obs.Jsonl.load path in
      check_int "good line decoded" 1 (List.length events);
      check_int "two diagnostics" 2 (List.length errors);
      check_bool "diagnostics carry line numbers" true
        (List.for_all
           (fun message ->
             String.length message > 5 && String.sub message 0 5 = "line ")
           errors))

let test_report_to_json_shape () =
  let report = Profile.of_events ~label:"unit" attribution_events in
  match Profile.to_json report with
  | Obs.Json.Obj fields ->
    check_bool "has levels" true (List.mem_assoc "levels" fields);
    check_bool "has conflicts" true (List.mem_assoc "conflicts" fields);
    check_bool "has critical paths" true
      (List.mem_assoc "transactions" fields);
    (match List.assoc "total_blocked" fields with
     | Obs.Json.Float total -> check_float "total in json" 55.0 total
     | Obs.Json.Int total -> check_int "total in json" 55 total
     | _ -> Alcotest.fail "total_blocked is not a number")
  | _ -> Alcotest.fail "report did not serialize to an object"

let () =
  Alcotest.run "profile"
    [ ("attribution",
       [ Alcotest.test_case "exact blocked time" `Quick test_exact_attribution;
         Alcotest.test_case "outcomes and matrix" `Quick
           test_outcomes_and_matrix;
         Alcotest.test_case "timeout taxonomy" `Quick test_timeout_taxonomy;
         Alcotest.test_case "critical path" `Quick test_critical_path;
         Alcotest.test_case "deterministic ties" `Quick
           test_deterministic_ties ]);
      ("trace",
       [ Alcotest.test_case "run_meta splitting" `Quick
           test_of_trace_splits_runs;
         Alcotest.test_case "snapshot stats" `Quick test_snapshot_stats ]);
      ("jsonl",
       [ Alcotest.test_case "full round-trip" `Quick test_jsonl_roundtrip;
         Alcotest.test_case "waits-for round-trip" `Quick
           test_snapshot_roundtrip;
         Alcotest.test_case "malformed lines" `Quick
           test_malformed_lines_are_diagnosed;
         Alcotest.test_case "report json shape" `Quick
           test_report_to_json_shape ]) ]
