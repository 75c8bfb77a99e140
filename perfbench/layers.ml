(* Per-layer metrics (--trace 1), from a separate traced pass per input.

   Each of the workload's inputs runs three ways: untraced as in the
   end-to-end run, untraced with the per-event audit off (only where the
   workload audits), and traced with the audit off. The audit is pure, so
   all three must give identical simulator results; the untraced pair
   prices the audit and the traced pass breaks the rest into layers. *)

open Report
module Table = Lockmgr.Lock_table
module Samples = Stats.Samples

(* Every library under lib/, for the lines-of-code counts. *)
let libraries =
  [ "authz"; "baselines"; "bench"; "colock"; "lockmgr"; "nf2"; "obs";
    "query"; "robust"; "session"; "sim"; "txn"; "workload" ]

(* Lines of the library's .ml and .mli files, read from the checkout the
   benchmark runs in; 0 once a library is gone. *)
let lines_of_code library =
  let dir = Filename.concat "lib" library in
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Array.fold_left
      (fun total file ->
        if Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"
        then
          let text =
            In_channel.with_open_bin (Filename.concat dir file)
              In_channel.input_all
          in
          total
          + String.fold_left (fun lines c -> if c = '\n' then lines + 1 else lines)
              0 text
        else total)
      0 (Sys.readdir dir)

(* Timer validation: request + release of one uncontended lock in a plain
   timed loop, ns per pair (median of 7 loops). *)
let loop_ns_per_op () =
  let table = Table.create () in
  let iterations = 100_000 in
  let once () =
    let (), took =
      Stats.timed (fun () ->
          for _ = 1 to iterations do
            (match Table.request table ~txn:1 ~resource:"r" Lockmgr.Lock_mode.X with
             | Table.Granted -> ()
             | Table.Waiting _ -> raise (Incorrect "uncontended request waited"));
            ignore (Table.release table ~txn:1 ~resource:"r")
          done)
    in
    took *. 1e9 /. float_of_int iterations
  in
  Stats.median (List.init 7 (fun _ -> once ()))

(* The cost of one clock read, which every traced span pays twice. *)
let clock_ns () =
  let calls = 1_000_000 in
  let (), took =
    Stats.timed (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Stats.now_ns ()))
        done)
  in
  took *. 1e9 /. float_of_int calls

(* Offline folds over one captured trace: JSONL encode + decode, the
   contention profile and the blame fold. *)
type folds = {
  mutable events : int;
  mutable jsonl_s : float;
  mutable profile_s : float;
  mutable blame_s : float;
}

let fold folds events =
  let decode line =
    match Obs.Json.of_string line with
    | Error message -> raise (Incorrect ("JSONL round trip: " ^ message))
    | Ok json -> (
      match Obs.Event.of_json json with
      | Ok event -> event
      | Error message -> raise (Incorrect ("JSONL round trip: " ^ message)))
  in
  let (), jsonl_s =
    Stats.timed (fun () ->
        List.iter
          (fun event ->
            ignore
              (decode (Obs.Json.to_string (Obs.Event.to_json event))))
          events)
  in
  let _profile, profile_s = Stats.timed (fun () -> Obs.Profile.of_events events) in
  let _blame, blame_s = Stats.timed (fun () -> Obs.Blame.of_events events) in
  folds.events <- folds.events + List.length events;
  folds.jsonl_s <- folds.jsonl_s +. jsonl_s;
  folds.profile_s <- folds.profile_s +. profile_s;
  folds.blame_s <- folds.blame_s +. blame_s

type input_run = {
  prepared : Workloads.prepared;
  untraced : Workloads.outcome;
  unaudited : Workloads.outcome;  (* the untraced pass itself when not audited *)
  traced : Workloads.outcome;
}

let run_input (workload : Workloads.t) tracer folds ~seed =
  let prepared = Workloads.prepare workload ~seed in
  let jobs = workload.mix.jobs in
  let untraced = Workloads.run_pass prepared ~jobs in
  Endtoend.check untraced;
  let unaudited =
    if workload.config.check_invariants then
      Workloads.run_pass ~check_invariants:false prepared ~jobs
    else untraced
  in
  let traced = Workloads.run_pass ~tracer ~check_invariants:false prepared ~jobs in
  List.iter Endtoend.check [ unaudited; traced ];
  require
    (unaudited.metrics = untraced.metrics && traced.metrics = untraced.metrics)
    "audit-off or traced pass changed the simulator results";
  if workload.soak then fold folds (Tracer.take_captured tracer);
  { prepared; untraced; unaudited; traced }

let run (workload : Workloads.t) ~seed =
  let seeds = Endtoend.input_seeds workload seed in
  Endtoend.warm_up workload (List.hd seeds);
  let tracer = Tracer.create ~capture:workload.soak in
  let folds = { events = 0; jsonl_s = 0.0; profile_s = 0.0; blame_s = 0.0 } in
  let inputs = List.map (fun seed -> run_input workload tracer folds ~seed) seeds in
  let sum f = List.fold_left (fun total input -> total +. f input) 0.0 inputs in
  let sum_int f = List.fold_left (fun total input -> total + f input) 0 inputs in
  let median f = Stats.median (List.map f inputs) in
  let seconds ns = float_of_int ns *. 1e-9 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let rate events s = if s > 0.0 then float_of_int events /. s else 0.0 in
  let untraced_s = sum (fun i -> i.untraced.wall_s) in
  let unaudited_s = sum (fun i -> i.unaudited.wall_s) in
  let traced_s = sum (fun i -> i.traced.wall_s) in
  let audit_s = untraced_s -. unaudited_s in
  let plan_s = seconds (Samples.total tracer.plan_ns) in
  let lock_s = seconds (Samples.total tracer.request_ns) in
  let check_s = seconds (Samples.total tracer.check_ns) in
  let handlers_s = Tracer.handlers_seconds tracer in
  let certify_s = sum (fun i -> i.traced.certify_finish_s) in
  let own_s = seconds tracer.own_ns in
  let runner_s =
    traced_s -. plan_s -. lock_s -. check_s -. handlers_s -. certify_s -. own_s
  in
  let per_event name =
    if tracer.events = 0 then 0.0
    else Tracer.handler_seconds tracer name *. 1e9 /. float_of_int tracer.events
  in
  let traced_metrics = List.map (fun i -> i.traced.metrics) inputs in
  let pooled = Endtoend.pool traced_metrics in
  require (pooled.lock_requests = tracer.requests)
    "traced lock requests disagree with the table's own count";
  let loop_ns = loop_ns_per_op () in
  (* which layer carries each workload (stderr only: a later change that fixes
     a layer is expected to change the answer) *)
  let shares =
    [ ("plan", plan_s); ("lock_table", lock_s); ("deadlock", check_s);
      ("obs", handlers_s); ("certify.finish", certify_s); ("runner", runner_s);
      ("trace", own_s) ]
  in
  List.iter
    (fun (name, s) ->
      log "%s: %-15s %8.3f s  %5.1f%% of the traced passes" workload.name name s
        (100.0 *. s /. traced_s))
    shares;
  let proof_share = (audit_s +. certify_s) /. untraced_s in
  log "%s: audit + certify.finish = %.1f%% of the untraced passes"
    workload.name (100.0 *. proof_share);
  (* the layer NOTES.md says carries the workload *)
  let stated, holds =
    match workload.name with
    | "wo-contention" ->
      ( "deadlock self time is the largest share",
        List.for_all (fun (_, s) -> s <= check_s) shares )
    | "proposed-flow" ->
      ( "plan self time >= 30% and deadlock < 5%",
        plan_s >= 0.3 *. traced_s && check_s < 0.05 *. traced_s )
    | _ -> ("audit + certify.finish is the majority", proof_share > 0.5)
  in
  log "%s: stated dominant layer: %s: %s" workload.name stated
    (if holds then "holds" else "does not hold");
  let outcomes =
    List.concat_map
      (fun i ->
        if workload.config.check_invariants then
          [ i.untraced; i.unaudited; i.traced ]
        else [ i.untraced; i.traced ])
      inputs
  in
  let attempted =
    List.fold_left (fun total (o : Workloads.outcome) -> total + o.jobs) 0 outcomes
  in
  let failed =
    List.fold_left
      (fun total (o : Workloads.outcome) -> total + Workloads.failed o.metrics)
      0 outcomes
  in
  let metrics =
    [ metric "nf2.generate_s" (median (fun i -> i.prepared.generate_s)) "s";
      metric "instance_graph.build_s" (median (fun i -> i.prepared.build_s)) "s";
      metric "instance_graph.nodes"
        (median (fun i -> float_of_int (Colock.Instance_graph.node_count i.prepared.graph)))
        "count";
      metric "protocol.create_s" (median (fun i -> i.untraced.instance_s)) "s";
      metric "scenario.compile_s"
        (median (fun i -> i.prepared.mix_s +. i.untraced.compile_s))
        "s";
      metric "plan.calls" (float_of_int (Samples.count tracer.plan_ns)) "count";
      metric "plan.requests_per_call"
        (ratio tracer.plan_requests (Samples.count tracer.plan_ns))
        "requests/call";
      metric "plan.ns_p50" (Samples.quantile tracer.plan_ns 0.5) "ns";
      metric "plan.ns_p99" (Samples.quantile tracer.plan_ns 0.99) "ns";
      metric "plan.self_s" plan_s "s";
      metric "lock_table.requests" (float_of_int tracer.requests) "count";
      metric "lock_table.waits" (float_of_int tracer.waits) "count";
      metric "lock_table.conflict_tests" (float_of_int pooled.conflict_tests)
        "count";
      metric "lock_table.peak_entries"
        (float_of_int
           (List.fold_left
              (fun peak (m : Sim.Metrics.t) -> max peak m.peak_lock_entries)
              0 traced_metrics))
        "count";
      metric "lock_table.queued_at_wait"
        (ratio tracer.queued_at_wait tracer.waits)
        "waiters/wait";
      metric "lock_table.request_ns_p50" (Samples.quantile tracer.request_ns 0.5)
        "ns";
      metric "lock_table.request_ns_p99"
        (Samples.quantile tracer.request_ns 0.99)
        "ns";
      metric "lock_table.self_s" lock_s "s";
      metric "lock_table.loop_ns_per_op" loop_ns "ns";
      metric "deadlock.checks" (float_of_int (Samples.count tracer.check_ns))
        "count";
      metric "deadlock.edges_per_check"
        (ratio tracer.edges (Samples.count tracer.check_ns))
        "edges/check";
      metric "deadlock.cycles" (float_of_int tracer.cycles) "count";
      metric "deadlock.check_ns_p50" (Samples.quantile tracer.check_ns 0.5) "ns";
      metric "deadlock.check_ns_p99" (Samples.quantile tracer.check_ns 0.99) "ns";
      metric "deadlock.self_s" check_s "s";
      metric "runner.audit_s" audit_s "s";
      metric "runner.audit_frac" (audit_s /. untraced_s) "ratio";
      metric "runner.ticks" (float_of_int tracer.ticks) "count";
      metric "runner.self_s" runner_s "s";
      metric "obs.events" (float_of_int tracer.events) "count";
      metric "obs.monitor_ns_per_event" (per_event "monitor") "ns";
      metric "obs.slo_ns_per_event" (per_event "slo") "ns";
      metric "obs.certify_ns_per_event" (per_event "certify") "ns";
      metric "certify.finish_s" certify_s "s";
      metric "certify.edges" (float_of_int (sum_int (fun i -> i.traced.certify_edges)))
        "count";
      metric "certify.committed"
        (float_of_int (sum_int (fun i -> i.traced.certify_committed)))
        "count";
      metric "fold.jsonl_events_per_s" (rate folds.events folds.jsonl_s)
        "events/s";
      metric "fold.profile_events_per_s" (rate folds.events folds.profile_s)
        "events/s";
      metric "fold.blame_events_per_s" (rate folds.events folds.blame_s)
        "events/s";
      metric "trace.overhead_frac" ((traced_s /. unaudited_s) -. 1.0) "ratio";
      metric "trace.self_s" own_s "s";
      metric "trace.clock_ns" (clock_ns ()) "ns" ]
    @ List.map
        (fun library ->
          metric ("loc." ^ library) (float_of_int (lines_of_code library))
            "lines")
        libraries
  in
  (attempted, failed, metrics)
