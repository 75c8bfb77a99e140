(* Tests for the observability layer: histogram quantile edge cases, ring
   wraparound, collector span pairing, and the Chrome trace exporter. *)

module Histogram = Obs.Histogram
module Ring = Obs.Ring
module Event = Obs.Event

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* -------------------------------------------------------------- Histogram *)

let test_histogram_empty () =
  let histogram = Histogram.create () in
  check_int "count" 0 (Histogram.count histogram);
  check_float "mean" 0.0 (Histogram.mean histogram);
  check_float "p50" 0.0 (Histogram.quantile histogram 0.5);
  check_float "p99" 0.0 (Histogram.quantile histogram 0.99);
  check_float "max" 0.0 (Histogram.max_value histogram)

let test_histogram_single_sample () =
  let histogram = Histogram.create () in
  Histogram.observe histogram 42.0;
  (* clamping to the observed min/max means every quantile is the sample *)
  List.iter
    (fun q ->
      check_float (Printf.sprintf "q=%.2f" q) 42.0
        (Histogram.quantile histogram q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  check_float "mean" 42.0 (Histogram.mean histogram);
  check_float "min" 42.0 (Histogram.min_value histogram);
  check_float "max" 42.0 (Histogram.max_value histogram)

let test_histogram_overflow_bucket () =
  let histogram = Histogram.create () in
  (* 2^63 lands beyond the last regular bucket (2^62) *)
  let huge = Float.ldexp 1.0 63 in
  Histogram.observe histogram 1.0;
  Histogram.observe histogram huge;
  check_int "count" 2 (Histogram.count histogram);
  (* the overflow bucket's upper bound is the observed maximum, so its
     quantiles interpolate toward the true max instead of infinity *)
  let p99 = Histogram.quantile histogram 0.99 in
  check_bool "p99 within the overflow bucket" true
    (p99 >= Float.ldexp 1.0 62 && p99 <= huge);
  check_float "q=1 is the observed max" huge (Histogram.quantile histogram 1.0);
  check_float "max" huge (Histogram.max_value histogram);
  check_bool "p50 stays finite" true
    (Float.is_finite (Histogram.quantile histogram 0.5))

let test_histogram_negative_clamps () =
  let histogram = Histogram.create () in
  Histogram.observe histogram (-5.0);
  check_float "min clamped to 0" 0.0 (Histogram.min_value histogram);
  check_float "p50" 0.0 (Histogram.quantile histogram 0.5)

let test_histogram_quantiles_ordered () =
  let histogram = Histogram.create () in
  List.iter
    (fun value -> Histogram.observe histogram (float_of_int value))
    (List.init 100 (fun index -> index + 1));
  let p50 = Histogram.quantile histogram 0.50 in
  let p95 = Histogram.quantile histogram 0.95 in
  let p99 = Histogram.quantile histogram 0.99 in
  check_bool "p50 <= p95" true (p50 <= p95);
  check_bool "p95 <= p99" true (p95 <= p99);
  check_bool "p99 <= max" true (p99 <= Histogram.max_value histogram);
  (* log-scale buckets are coarse, but the median of 1..100 must land in the
     right power-of-two neighbourhood *)
  check_bool "p50 in [32, 64]" true (p50 >= 32.0 && p50 <= 64.0)

let test_histogram_bucket_counts () =
  let histogram = Histogram.create () in
  check_bool "empty histogram has no buckets" true
    (Histogram.bucket_counts histogram = []);
  List.iter (Histogram.observe histogram) [ 1.0; 1.5; 100.0 ];
  let buckets = Histogram.bucket_counts histogram in
  check_int "samples preserved" 3
    (List.fold_left (fun acc (_, count) -> acc + count) 0 buckets);
  check_bool "lower bounds ascend" true
    (let bounds = List.map fst buckets in
     List.sort compare bounds = bounds);
  check_bool "only non-empty buckets" true
    (List.for_all (fun (_, count) -> count > 0) buckets)

(* ------------------------------------------------------------------- Ring *)

let test_ring_wraparound () =
  let ring = Ring.create ~capacity:4 in
  for value = 1 to 10 do
    Ring.push ring value
  done;
  check_int "length capped" 4 (Ring.length ring);
  check_int "pushed" 10 (Ring.pushed ring);
  check_int "dropped" 6 (Ring.dropped ring);
  Alcotest.(check (list int)) "keeps the newest, oldest first" [ 7; 8; 9; 10 ]
    (Ring.to_list ring)

let test_ring_partial_fill () =
  let ring = Ring.create ~capacity:8 in
  List.iter (Ring.push ring) [ 1; 2; 3 ];
  check_int "length" 3 (Ring.length ring);
  check_int "dropped" 0 (Ring.dropped ring);
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (Ring.to_list ring);
  Ring.clear ring;
  check_int "cleared" 0 (Ring.length ring)

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0))

(* -------------------------------------------------------------- Collector *)

let wait txn resource =
  Event.Lock_waited
    { txn; resource; mode = "X"; blockers = [ 99 ]; lu = None; holders = [] }

let grant ?(immediate = false) txn resource =
  Event.Lock_granted
    { txn; resource; mode = "X"; immediate; lu = None; holders = [] }

let test_collector_pairs_wait_to_grant () =
  let collector = Obs.Collector.create () in
  let sink = Obs.Sink.create [ Obs.Collector.handle collector ] in
  Obs.Sink.emit_at sink ~time:10.0 (wait 1 "r");
  Obs.Sink.emit_at sink ~time:25.0 (grant 1 "r");
  let registry = Obs.Collector.registry collector in
  let histogram = Option.get (Obs.Registry.find_histogram registry "lock_wait") in
  check_int "one wait span" 1 (Histogram.count histogram);
  check_float "wait duration" 15.0 (Histogram.max_value histogram);
  check_int "events counted" 1 (Obs.Registry.counter registry "events.lock_waited")

let test_collector_txn_response () =
  let collector = Obs.Collector.create () in
  let sink = Obs.Sink.create [ Obs.Collector.handle collector ] in
  Obs.Sink.emit_at sink ~time:0.0 (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit_at sink ~time:100.0 (Event.Txn_commit { txn = 1 });
  Obs.Sink.emit_at sink ~time:5.0 (Event.Txn_begin { txn = 2 });
  Obs.Sink.emit_at sink ~time:6.0
    (Event.Txn_abort { txn = 2; reason = "user" });
  let registry = Obs.Collector.registry collector in
  let histogram =
    Option.get (Obs.Registry.find_histogram registry "txn_response")
  in
  check_int "only the commit is a response sample" 1 (Histogram.count histogram);
  check_float "response time" 100.0 (Histogram.max_value histogram)

(* ------------------------------------------------------------------- Sink *)

let test_sink_filter_drops_sim_steps () =
  let seen = ref [] in
  let sink =
    Obs.Sink.create
      [ Obs.Sink.filter Obs.Sink.not_sim_step
          (fun event -> seen := event :: !seen) ]
  in
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 0 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 1 });
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  check_int "sim steps filtered out" 2 (List.length !seen)

let test_sink_sample () =
  let count = ref 0 in
  let handler = Obs.Sink.sample ~seed:7 ~every:3 (fun _event -> incr count) in
  let sink = Obs.Sink.create [ handler ] in
  for step = 0 to 8 do
    Obs.Sink.emit sink (Event.Sim_step { txn = 1; step })
  done;
  check_int "one event per stride of three passes" 3 !count;
  Alcotest.check_raises "rejects non-positive rate"
    (Invalid_argument "Sink.sample: every must be positive") (fun () ->
      ignore
        (Obs.Sink.sample ~seed:7 ~every:0 (fun _event -> ())
          : Event.t -> unit))

let test_sink_sample_seeded_regression () =
  (* the stratified sampler is a pure function of (seed, every, arrival
     order): pin the exact picks for one seed so the PRNG cannot drift *)
  let picks seed =
    let kept = ref [] in
    let handler =
      Obs.Sink.sample ~seed ~every:4 (fun event ->
          match event.Event.kind with
          | Event.Sim_step { step; _ } -> kept := step :: !kept
          | _ -> ())
    in
    let sink = Obs.Sink.create [ handler ] in
    for step = 0 to 19 do
      Obs.Sink.emit sink (Event.Sim_step { txn = 1; step })
    done;
    List.rev !kept
  in
  let first = picks 42 in
  check_int "one pick per stride" 5 (List.length first);
  Alcotest.(check (list int)) "same seed, same picks" first (picks 42);
  Alcotest.(check (list int))
    "pinned picks for seed 42"
    [ 2; 6; 10; 15; 18 ]
    first

let test_memory_keep_filters_ring_only () =
  let sink, ring = Obs.Sink.memory ~keep:Obs.Sink.not_sim_step () in
  let collector = Obs.Collector.create () in
  Obs.Sink.attach sink (Obs.Collector.handle collector);
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 0 });
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  check_int "ring skips the noise" 2 (Ring.length ring);
  check_int "collector still counts it" 1
    (Obs.Registry.counter
       (Obs.Collector.registry collector)
       "events.sim_step")

(* ------------------------------------------------------------------ Trace *)

let test_trace_exports_wait_span () =
  let events =
    [ { Event.time = 0.0; kind = Event.Txn_begin { txn = 1 } };
      { Event.time = 10.0; kind = wait 1 "db1/x" };
      { Event.time = 30.0; kind = grant 1 "db1/x" };
      { Event.time = 50.0; kind = Event.Txn_commit { txn = 1 } } ]
  in
  let rendered =
    Obs.Json.to_string (Obs.Trace.to_json [ ("proposed", events) ])
  in
  let contains needle haystack =
    let nlen = String.length needle in
    let hlen = String.length haystack in
    let rec scan index =
      index + nlen <= hlen
      && (String.equal (String.sub haystack index nlen) needle
          || scan (index + 1))
    in
    scan 0
  in
  check_bool "has a wait span" true (contains "\"wait db1/x\"" rendered);
  check_bool "has the process name" true (contains "\"proposed\"" rendered);
  check_bool "closes the txn span" true (contains "\"committed\"" rendered)

(* A contention-aborted wait is closed at the abort and marked unfinished;
   the restarted wait on the same resource is a slice of its own. *)
let test_trace_closes_aborted_wait () =
  let events =
    [ { Event.time = 10.0; kind = wait 1 "r" };
      { Event.time = 20.0;
        kind =
          Event.Contention_abort { txn = 1; policy = "wdl:1"; depth = 2 } };
      { Event.time = 30.0; kind = wait 1 "r" };
      { Event.time = 40.0; kind = grant 1 "r" } ]
  in
  let slices =
    match Obs.Trace.to_json [ ("proposed", events) ] with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Obs.Json.List entries) ->
        List.filter_map
          (function
            | Obs.Json.Obj slice
              when List.assoc_opt "name" slice = Some (Obs.Json.String "wait r")
              -> (
              match
                ( List.assoc_opt "ts" slice, List.assoc_opt "dur" slice,
                  List.assoc_opt "args" slice )
              with
              | Some (Obs.Json.Float ts), Some (Obs.Json.Float dur),
                Some (Obs.Json.Obj args) ->
                Some (ts, dur, List.mem_assoc "unfinished" args)
              | _ -> None)
            | _ -> None)
          entries
      | _ -> [])
    | _ -> []
  in
  Alcotest.(check (list (triple (float 0.0) (float 0.0) bool)))
    "aborted slice, then the restarted wait"
    [ (10000.0, 10000.0, true); (30000.0, 10000.0, false) ]
    slices

let () =
  Alcotest.run "obs"
    [ ("histogram",
       [ Alcotest.test_case "empty" `Quick test_histogram_empty;
         Alcotest.test_case "single sample" `Quick
           test_histogram_single_sample;
         Alcotest.test_case "overflow bucket" `Quick
           test_histogram_overflow_bucket;
         Alcotest.test_case "negative clamps" `Quick
           test_histogram_negative_clamps;
         Alcotest.test_case "quantiles ordered" `Quick
           test_histogram_quantiles_ordered;
         Alcotest.test_case "bucket counts" `Quick
           test_histogram_bucket_counts ]);
      ("ring",
       [ Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
         Alcotest.test_case "partial fill" `Quick test_ring_partial_fill;
         Alcotest.test_case "bad capacity" `Quick
           test_ring_rejects_bad_capacity ]);
      ("collector",
       [ Alcotest.test_case "wait->grant pairing" `Quick
           test_collector_pairs_wait_to_grant;
         Alcotest.test_case "txn response" `Quick
           test_collector_txn_response ]);
      ("sink",
       [ Alcotest.test_case "filter" `Quick test_sink_filter_drops_sim_steps;
         Alcotest.test_case "sample" `Quick test_sink_sample;
         Alcotest.test_case "sample seeded regression" `Quick
           test_sink_sample_seeded_regression;
         Alcotest.test_case "memory keep" `Quick
           test_memory_keep_filters_ring_only ]);
      ("trace",
       [ Alcotest.test_case "wait span" `Quick test_trace_exports_wait_span;
         Alcotest.test_case "aborted wait closes" `Quick
           test_trace_closes_aborted_wait ])
    ]
