(* colock — command-line interface to the lock technique library.

   Subcommands:
     graph     print the object-specific lock graph of the Figure 1 relations
               (or of a generated deep schema)
     plan      show the lock plan of a query, per technique
     query     execute queries against the Figure 1 database, showing rows
               and the resulting lock table
     simulate  run the concurrency simulator on a generated workload *)

open Cmdliner

let setup_logs =
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Log lock-protocol and lock-table decisions to stderr.")
  in
  let setup verbose =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(const setup $ verbose)

let make_fig1_env ~library_writable =
  let db = Workload.Figure1.database () in
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let rights = Authz.Rights.create () in
  if not library_writable then
    Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Colock.Protocol.create ~rights graph table in
  (db, graph, table, protocol)

(* ------------------------------------------------------------------ graph *)

let graph_cmd =
  let deep_depth =
    Arg.(value & opt (some int) None
         & info [ "deep" ] ~docv:"DEPTH"
             ~doc:"Show the lock graph of a generated schema of this depth \
                   instead of the Figure 1 relations.")
  in
  let run () deep =
    (match deep with
     | Some depth ->
       let db =
         Workload.Generator.deep
           { Workload.Generator.default_deep with depth; objects = 1 }
       in
       List.iter
         (fun store ->
           let schema = Nf2.Relation.schema store in
           Format.printf "%a@.@." Colock.Object_graph.pp
             (Colock.Object_graph.of_relation ~database:"db1" schema))
         (Nf2.Database.relations db)
     | None ->
       List.iter
         (fun schema ->
           Format.printf "%a@.@." Colock.Object_graph.pp
             (Colock.Object_graph.of_relation ~database:"db1" schema))
         [ Workload.Figure1.cells_schema; Workload.Figure1.effectors_schema ]);
    0
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print object-specific lock graphs (Figure 5).")
    Term.(const run $ setup_logs $ deep_depth)

(* ------------------------------------------------------------------- plan *)

let query_arg position =
  Arg.(required & pos position (some string) None
       & info [] ~docv:"QUERY" ~doc:"An HDBL-like query (see Figure 3).")

let plan_cmd =
  let threshold =
    Arg.(value & opt int 16
         & info [ "threshold" ] ~docv:"N" ~doc:"Escalation threshold.")
  in
  let run () text threshold =
    let db, _graph, _table, _protocol = make_fig1_env ~library_writable:true in
    match Query.Parser.parse text with
    | Error error ->
      Format.eprintf "%a@." Query.Parser.pp_error error;
      1
    | Ok ast -> (
      let catalog = Nf2.Database.catalog db in
      match Query.Analyzer.analyze catalog ast with
      | Error error ->
        Format.eprintf "%a@." Query.Analyzer.pp_error error;
        1
      | Ok analysis ->
        let stats relation =
          match Nf2.Database.relation db relation with
          | Some store -> Nf2.Statistics.compute store
          | None -> Nf2.Statistics.empty relation
        in
        let plan =
          Colock.Query_graph.build ~threshold catalog ~stats
            analysis.Query.Analyzer.accesses
        in
        Format.printf "%a@." Colock.Query_graph.pp plan;
        0)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Show the query-specific lock graph (granules and modes) chosen \
             by escalation anticipation.")
    Term.(const run $ setup_logs $ query_arg 0 $ threshold)

(* ------------------------------------------------------------------ query *)

let query_cmd =
  let queries =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:"Queries, executed by transactions 1, 2, ... in order.")
  in
  let library_writable =
    Arg.(value & flag
         & info [ "library-writable" ]
             ~doc:"Allow every transaction to modify the effectors library \
                   (rule 4' then behaves like rule 4).")
  in
  let run () texts library_writable =
    let db, _graph, table, protocol = make_fig1_env ~library_writable in
    let executor = Query.Executor.create db protocol in
    let failed = ref false in
    List.iteri
      (fun index text ->
        let txn = index + 1 in
        Printf.printf "T%d: %s\n" txn text;
        match Query.Executor.run_string executor ~txn ~wait:false text with
        | Ok result ->
          Printf.printf "  %d row(s), %d lock request(s)\n"
            (List.length result.Query.Executor.rows)
            result.Query.Executor.locks_requested
        | Error error ->
          failed := true;
          Format.printf "  %a@." Query.Executor.pp_error error)
      texts;
    Format.printf "@.lock table:@.%a@." Lockmgr.Lock_table.pp table;
    if !failed then 1 else 0
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Execute queries against the Figure 1 database and show the \
             resulting lock table (compare with Figure 7).")
    Term.(const run $ setup_logs $ queries $ library_writable)

(* ------------------------------------------------- simulate / trace common *)

let technique_conv =
  Arg.enum
    [ ("proposed", `Proposed); ("rule4", `Proposed_rule4);
      ("whole-object", `Whole_object); ("tuple-level", `Tuple_level) ]

let jobs_arg =
  Arg.(value & opt int 60 & info [ "jobs" ] ~docv:"N" ~doc:"Number of transactions.")

let cells_arg =
  Arg.(value & opt int 8 & info [ "cells" ] ~docv:"N" ~doc:"Cells in the database.")

let read_fraction_arg =
  Arg.(value & opt float 0.5
       & info [ "read-fraction" ] ~docv:"F" ~doc:"Fraction of Q1-like reads.")

let seed_arg =
  Arg.(value & opt int 17 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let resolution_conv =
  let parse text =
    match Lockmgr.Policy.resolution_of_string text with
    | Ok _ as ok -> ok
    | Error message -> Error (`Msg message)
  in
  Arg.conv (parse, Lockmgr.Policy.pp_resolution)

let victim_conv =
  let parse text =
    match Lockmgr.Policy.victim_of_string text with
    | Ok _ as ok -> ok
    | Error message -> Error (`Msg message)
  in
  Arg.conv (parse, Lockmgr.Policy.pp_victim)

let backoff_conv =
  let parse text =
    match Lockmgr.Policy.backoff_of_string text with
    | Ok _ as ok -> ok
    | Error message -> Error (`Msg message)
  in
  Arg.conv (parse, Lockmgr.Policy.pp_backoff)

let faults_conv =
  let print formatter spec =
    Format.pp_print_string formatter (Sim.Fault.to_string spec)
  in
  Arg.conv (Sim.Fault.of_string, print)

let restart_conv =
  let parse text =
    match Lockmgr.Policy.restart_of_string text with
    | Ok _ as ok -> ok
    | Error message -> Error (`Msg message)
  in
  Arg.conv (parse, Lockmgr.Policy.pp_restart)

let admission_conv =
  let parse text =
    Result.map_error
      (fun message -> `Msg message)
      (Robust.Admission.config_of_string text)
  in
  let print formatter config =
    Format.pp_print_string formatter (Robust.Admission.config_to_string config)
  in
  Arg.conv (parse, print)

let retry_budget_conv =
  let parse text =
    Result.map_error
      (fun message -> `Msg message)
      (Robust.Budget.config_of_string text)
  in
  let print formatter (config : Robust.Budget.config) =
    Format.fprintf formatter "%g:%g" config.ratio config.burst
  in
  Arg.conv (parse, print)

let breaker_conv =
  let parse text =
    Result.map_error
      (fun message -> `Msg message)
      (Robust.Breaker.config_of_string text)
  in
  let print formatter (config : Robust.Breaker.config) =
    Format.fprintf formatter "%g:%d:%d" config.failure_rate config.open_for
      config.probes
  in
  Arg.conv (parse, print)

let resolution_arg =
  Arg.(value & opt resolution_conv Lockmgr.Policy.Detection
       & info [ "resolution" ] ~docv:"STRATEGY"
           ~doc:"How stuck waits resolve: $(b,detection) (waits-for cycle \
                 search on every wait), $(b,timeout)[:TICKS] (abort any \
                 wait older than TICKS, no detection), or \
                 $(b,hybrid)[:TICKS] (both).")

let victim_arg =
  Arg.(value & opt victim_conv Lockmgr.Policy.Youngest
       & info [ "victim" ] ~docv:"POLICY"
           ~doc:"Deadlock victim selection: $(b,youngest), $(b,oldest), \
                 $(b,fewest-locks) or $(b,least-work).")

let backoff_arg =
  Arg.(value & opt backoff_conv (Lockmgr.Policy.Fixed 50)
       & info [ "backoff" ] ~docv:"SPEC"
           ~doc:"Victim restart delay: $(b,fixed):N or \
                 $(b,exp):BASE:CAP[:SEED] (exponential with deterministic \
                 jitter).")

let max_restarts_arg =
  Arg.(value & opt int 20
       & info [ "max-restarts" ] ~docv:"N"
           ~doc:"Abort budget per job; a job victimized more often gives up.")

let faults_arg =
  Arg.(value & opt faults_conv Sim.Fault.none
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:"Inject faults, e.g. $(b,crash:0.1,stall:0.2x4,hog:0.05): \
                 each job draws a fate from the --seed-derived RNG; crashed \
                 jobs die holding their locks, stalled jobs access N times \
                 slower, hogs camp on their locks without committing.")

let restart_policy_arg =
  Arg.(value & opt restart_conv Lockmgr.Policy.No_restart
       & info [ "restart-policy" ] ~docv:"POLICY"
           ~doc:"Contention-control restart policy applied the moment a \
                 request starts waiting: $(b,none), $(b,wdl)[:D] (abort a \
                 transaction when its wait chain exceeds depth D) or \
                 $(b,running-priority) (abort blockers that are themselves \
                 waiting).")

let admission_arg =
  Arg.(value & opt (some admission_conv) None
       & info [ "admission" ] ~docv:"INIT[:MIN:MAX[:QUEUE]]"
           ~doc:"Gate job begins through an adaptive (AIMD) concurrency \
                 limit starting at INIT, clamped to [MIN,MAX], with a \
                 bounded priority entry queue of QUEUE slots; overflow is \
                 shed.")

let retry_budget_arg =
  Arg.(value & opt (some retry_budget_conv) None
       & info [ "retry-budget" ] ~docv:"RATIO[:BURST]"
           ~doc:"Couple restarts to useful work: each commit earns RATIO \
                 retry tokens (bucket capacity BURST); a restart with an \
                 empty bucket gives up instead of retrying.")

let breaker_arg =
  Arg.(value & opt (some breaker_conv) None
       & info [ "breaker" ] ~docv:"RATE:OPEN[:PROBES]"
           ~doc:"Abort-storm circuit breaker: when the abort fraction of \
                 recent outcomes crosses RATE the breaker opens for OPEN \
                 ticks, then half-opens and lets PROBES probe restarts \
                 decide whether to close.")

let check_invariants_arg =
  Arg.(value & flag
       & info [ "check-invariants" ]
           ~doc:"Audit the lock table and job states after every simulator \
                 event (chaos-run oracle; slows large runs down).")

let manufacturing_scenario ~jobs ~cells ~read_fraction ~seed =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells; seed }
  in
  let graph = Colock.Instance_graph.build db in
  let mix = { Sim.Scenario.default_mix with jobs; read_fraction; seed } in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  (graph, specs)

let technique_of graph table = function
  | `Proposed -> Sim.Scenario.Proposed (Colock.Protocol.create graph table)
  | `Proposed_rule4 ->
    Sim.Scenario.Proposed
      (Colock.Protocol.create ~rule:Colock.Protocol.Rule_4 graph table)
  | `Whole_object -> Sim.Scenario.Whole_object
  | `Tuple_level -> Sim.Scenario.Tuple_level

(* An instrumented capture context: ring buffer for raw events, collector
   for latency histograms, both fed by one sink.  [?keep] filters what the
   ring retains (the collector always sees everything, so counters stay
   complete). *)
let make_capture ?keep () =
  let sink, ring = Obs.Sink.memory ~capacity:262144 ?keep () in
  let collector = Obs.Collector.create () in
  Obs.Sink.attach sink (Obs.Collector.handle collector);
  (sink, ring, collector)

let with_out path f =
  if String.equal path "-" then f stdout
  else
    match open_out path with
    | channel ->
      Fun.protect ~finally:(fun () -> close_out channel) (fun () -> f channel)
    | exception Sys_error message ->
      Fmt.epr "colock: cannot write output: %s@." message;
      exit 1

(* ------------------------------------------------- live monitoring common *)

let window_arg =
  Arg.(value & opt float 200.0
       & info [ "window" ] ~docv:"TICKS"
           ~doc:"Sliding-window length (virtual clock ticks) behind the \
                 windowed rates, wait quantiles and SLO evaluation.")

let slo_arg =
  Arg.(value & opt (some file) None
       & info [ "slo" ] ~docv:"FILE"
           ~doc:"Evaluate SLO rules from $(docv) (one per line, e.g. \
                 $(b,p99_wait < 40), $(b,abort_rate < 0.25), optionally \
                 $(b,p95_wait{lu=HoLU} < 25)) once per window; every \
                 violation emits an slo_breach event into the captures.")

let load_slo = function
  | None -> None
  | Some path ->
    (match Obs.Slo.load path with
     | Ok slo -> Some slo
     | Error message ->
       (* diagnostics already carry "path:line:" positions *)
       Fmt.epr "colock: %s@." message;
       exit 1)

(* The run can end with SLO breaches (exit 3) — distinct from usage errors
   (124/125) and ordinary failures (1). *)
let exit_slo_breach = 3

let health_response monitor =
  let body =
    Obs.Monitor.locked monitor (fun () ->
        Obs.Json.to_string
          (Obs.Json.Obj
             [ ("status", Obs.Json.String "ok");
               ( "run",
                 match Obs.Monitor.label monitor with
                 | Some label -> Obs.Json.String label
                 | None -> Obs.Json.Null );
               ("now", Obs.Json.Float (Obs.Monitor.now monitor));
               ( "commits",
                 Obs.Json.Float (float_of_int (Obs.Monitor.commits monitor))
               ) ]))
    ^ "\n"
  in
  { Obs.Http.status = 200; content_type = "application/json"; body }

(* [sink ()] is consulted per scrape: simulate re-creates its capture sink
   for every technique, and the self-accounting gauges should describe the
   one currently live. *)
let start_metrics_server ~port monitor sink =
  let handler path =
    match path with
    | "/metrics" ->
      let body =
        Obs.Monitor.locked monitor (fun () ->
            (match sink () with
             | Some sink -> Obs.Monitor.sync_sink monitor sink
             | None -> ());
            Obs.Expo.render (Obs.Monitor.registry monitor))
      in
      Some
        { Obs.Http.status = 200; content_type = Obs.Expo.content_type; body }
    | "/health" -> Some (health_response monitor)
    | _ -> None
  in
  let server = Obs.Http.start ~port handler in
  Printf.eprintf "colock: serving /metrics and /health on 127.0.0.1:%d\n%!"
    (Obs.Http.port server);
  server

let print_verdicts ~label verdicts =
  List.iter
    (fun { Obs.Slo.rule; value; ok } ->
      Printf.printf "%-22s %s %s (value %g)\n" label
        (if ok then "ok    " else "BREACH")
        rule.Obs.Slo.text value)
    verdicts

(* ------------------------------------------------------------- dashboard *)

(* One [colock top] frame as a string: plain text under [--once] (golden
   testable), ANSI-highlighted live. *)
let render_dashboard ?(color = false) ?(top = 8) monitor watch =
  let buffer = Buffer.create 1024 in
  let add format = Printf.ksprintf (Buffer.add_string buffer) format in
  let bold text = if color then "\027[1m" ^ text ^ "\027[0m" else text in
  let red text = if color then "\027[31m" ^ text ^ "\027[0m" else text in
  let registry = Obs.Monitor.registry monitor in
  let gauge name = int_of_float (Obs.Registry.gauge_value registry name) in
  let window name = Obs.Registry.find_window registry name in
  let label =
    match Obs.Monitor.label monitor with
    | Some label -> label
    | None -> "(unlabelled run)"
  in
  add "%s\n" (bold (Printf.sprintf "colock top — %s" label));
  add "now %.0f  elapsed %.0f  throughput %.4f commits/tick\n"
    (Obs.Monitor.now monitor)
    (Obs.Monitor.elapsed monitor)
    (Obs.Monitor.throughput monitor);
  add "active txns %d  lock entries %d  wait queue %d\n"
    (gauge "active_txns") (gauge "lock_entries") (gauge "wait_queue_depth");
  (match window "window.lock_wait" with
   | Some waits ->
     add
       "window wait  p50 %.1f  p95 %.1f  p99 %.1f  max %.1f  (%d waits, \
        %.3f/tick)\n"
       (Obs.Window.quantile waits 0.50)
       (Obs.Window.quantile waits 0.95)
       (Obs.Window.quantile waits 0.99)
       (Obs.Window.max_value waits) (Obs.Window.count waits)
       (Obs.Window.rate waits)
   | None -> ());
  let window_line name window =
    add "window %-9s %4d  (%.3f/tick)\n" name (Obs.Window.count window)
      (Obs.Window.rate window)
  in
  List.iter
    (fun (title, name) ->
      match window name with
      | Some window -> window_line title window
      | None -> ())
    [ ("grants", "window.grants"); ("commits", "window.commits");
      ("aborts", "window.aborts"); ("deadlocks", "window.deadlocks") ];
  (match
     List.filter (fun (_, count) -> count > 0) (Obs.Monitor.aborts monitor)
   with
   | [] -> ()
   | aborts ->
     add "aborts: %s\n"
       (String.concat "  "
          (List.map
             (fun (reason, count) -> Printf.sprintf "%s %d" reason count)
             aborts)));
  (match Obs.Monitor.hot_resources ~top monitor with
   | [] -> ()
   | hot ->
     add "%s\n" (bold "hot resources                    blocked  waits  lu");
     List.iter
       (fun (resource, stat) ->
         add "  %-30s %7.1f  %5d  %s\n" resource
           stat.Obs.Monitor.r_blocked stat.Obs.Monitor.r_waits
           (match stat.Obs.Monitor.r_lu with
            | Some { Obs.Event.lu_kind; _ } -> lu_kind
            | None -> "-"))
       hot);
  (match watch with
   | None -> ()
   | Some watch ->
     let verdicts =
       Obs.Slo.evaluate (Obs.Slo.watched watch) monitor
     in
     let breaches = Obs.Slo.breach_count watch in
     add "%s\n"
       (bold
          (Printf.sprintf "SLO (%d rule(s), %d breach(es) this run)"
             (List.length verdicts) breaches));
     List.iter
       (fun { Obs.Slo.rule; value; ok } ->
         let status = if ok then "ok    " else red "BREACH" in
         add "  %s %s (value %g)\n" status rule.Obs.Slo.text value)
       verdicts);
  Buffer.contents buffer

(* --------------------------------------------------------------- simulate *)

let simulate_cmd =
  let technique =
    Arg.(value & opt (list technique_conv) [ `Proposed; `Whole_object; `Tuple_level ]
         & info [ "technique"; "t" ] ~docv:"TECH"
             ~doc:"Techniques to compare: proposed, rule4, whole-object, \
                   tuple-level.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event capture of the run(s) to \
                   $(docv) — open it in chrome://tracing or Perfetto; lock \
                   waits appear as spans, one timeline row per transaction.")
  in
  let stats_json_file =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write per-technique metrics (simulator counters, lock \
                   table counters, wait/grant/response latency quantiles and \
                   histogram buckets) as JSON to $(docv). Use '-' for \
                   stdout; the table is then suppressed.")
  in
  let jsonl_file =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Write the raw event stream of the run(s) as JSON lines to \
                   $(docv) ('-' for stdout), one run_meta delimiter line per \
                   technique — the input format of $(b,colock analyze).")
  in
  let snapshot_every =
    Arg.(value & opt (some int) None
         & info [ "snapshot-every" ] ~docv:"TICKS"
             ~doc:"Emit a wait-for-graph snapshot event every $(docv) \
                   virtual ticks, so deadlock structure is observable over \
                   time in traces and contention reports.")
  in
  let trace_all =
    Arg.(value & flag
         & info [ "trace-all" ]
             ~doc:"Keep per-step sim_step noise in captures; by default it \
                   is filtered out of --trace/--jsonl output (counters still \
                   see every event).")
  in
  let serve_port =
    Arg.(value & opt (some int) None
         & info [ "serve" ] ~docv:"PORT"
             ~doc:"Serve live Prometheus metrics ($(b,/metrics)) and a \
                   health probe ($(b,/health)) on 127.0.0.1:$(docv) while \
                   the simulation runs (0 picks an ephemeral port). Combine \
                   with $(b,--pace) so there is wall time to scrape.")
  in
  let pace =
    Arg.(value & opt float 0.0
         & info [ "pace" ] ~docv:"TICKS/SEC"
             ~doc:"Pace the simulation against wall time at $(docv) virtual \
                   ticks per second (0 = run flat out). Makes $(b,--serve) \
                   endpoints show the run unfolding live.")
  in
  let run () techniques jobs cells read_fraction seed resolution victim
      backoff max_restarts restart admission retry_budget breaker faults
      check_invariants trace_file stats_json_file jsonl_file snapshot_every
      trace_all serve_port pace window slo_file =
    let graph, specs =
      manufacturing_scenario ~jobs ~cells ~read_fraction ~seed
    in
    let slo = load_slo slo_file in
    let monitoring = serve_port <> None || slo <> None in
    let on_advance =
      if pace > 0.0 then begin
        let previous = ref 0 in
        Some
          (fun time ->
            let delta = time - !previous in
            previous := time;
            if delta > 0 then Unix.sleepf (float_of_int delta /. pace))
      end
      else None
    in
    let overload =
      if admission <> None || retry_budget <> None || breaker <> None then
        Some
          { Sim.Runner.admission;
            controller = Robust.Controller.default_config;
            budget = retry_budget; breaker }
      else None
    in
    let config =
      { Sim.Runner.default_config with resolution; victim; backoff;
        max_restarts; restart; overload; check_invariants; snapshot_every;
        on_advance }
    in
    let faults = { faults with Sim.Fault.fault_seed = seed } in
    let observing =
      trace_file <> None || stats_json_file <> None || jsonl_file <> None
      || monitoring
    in
    let keep = if trace_all then None else Some Obs.Sink.not_sim_step in
    let quiet = stats_json_file = Some "-" || jsonl_file = Some "-" in
    let monitor =
      if monitoring then Some (Obs.Monitor.create ~span:window ()) else None
    in
    let live_sink = ref None in
    let server =
      Option.map
        (fun port ->
          let monitor = Option.get monitor in
          start_metrics_server ~port monitor (fun () -> !live_sink))
        serve_port
    in
    let breach_total = ref 0 in
    if not quiet then
      Printf.printf "%-22s %9s %9s %9s %9s %9s %9s %9s %9s\n" "technique"
        "committed" "aborts" "crashed" "makespan" "thruput" "avg resp" "waits"
        "locks";
    let captures =
      List.map
        (fun selector ->
          let capture =
            if observing then Some (make_capture ?keep ()) else None
          in
          let obs = Option.map (fun (sink, _, _) -> sink) capture in
          live_sink := obs;
          (* tag lock events with granule metadata for every technique —
             the baselines have no protocol to install the resolver *)
          let table =
            Lockmgr.Lock_table.create ?obs
              ~meta:(Colock.Instance_graph.lu_resolver graph) ()
          in
          let technique = technique_of graph table selector in
          let name = Sim.Scenario.technique_name technique in
          (* one live monitor across techniques: a begin_run reset per
             technique keeps the /metrics endpoint from bleeding stats
             between runs; a fresh SLO watch per technique restarts the
             breach tally and window phase *)
          let watch =
            match monitor, obs with
            | Some monitor, Some sink ->
              Obs.Monitor.begin_run monitor ~label:name;
              Obs.Sink.attach sink (Obs.Monitor.handle monitor);
              Option.map
                (fun slo ->
                  let watch = Obs.Slo.watch ~sink slo monitor in
                  Obs.Sink.attach sink (Obs.Slo.handler watch);
                  watch)
                slo
            | _ -> None
          in
          let sim_jobs = Sim.Scenario.compile graph technique specs in
          let metrics = Sim.Runner.run ~config ~faults ~table sim_jobs in
          (match watch with
           | None -> ()
           | Some watch ->
             let breaches =
               Obs.Slo.finish watch
                 ~time:(float_of_int metrics.Sim.Metrics.makespan)
             in
             breach_total := !breach_total + breaches);
          if not quiet then
            Printf.printf "%-22s %9d %9d %9d %9d %9.2f %9.1f %9d %9d\n" name
              metrics.Sim.Metrics.committed
              (metrics.Sim.Metrics.deadlock_aborts
               + metrics.Sim.Metrics.timeout_aborts)
              metrics.Sim.Metrics.crashed metrics.Sim.Metrics.makespan
              (Sim.Metrics.throughput metrics)
              (Sim.Metrics.avg_response metrics)
              metrics.Sim.Metrics.total_wait metrics.Sim.Metrics.lock_requests;
          (match watch, monitor with
           | Some watch, Some monitor when not quiet ->
             print_verdicts ~label:name
               (Obs.Slo.evaluate (Obs.Slo.watched watch) monitor)
           | _ -> ());
          (name, capture, table, metrics))
        techniques
    in
    Option.iter Obs.Http.stop server;
    (match trace_file with
     | None -> ()
     | Some path ->
       let groups =
         List.filter_map
           (fun (name, capture, _table, _metrics) ->
             Option.map
               (fun (_, ring, _) -> (name, Obs.Ring.to_list ring))
               capture)
           captures
       in
       with_out path (fun channel -> Obs.Trace.write channel groups));
    (match jsonl_file with
     | None -> ()
     | Some path ->
       with_out path (fun channel ->
           List.iter
             (fun (name, capture, _table, _metrics) ->
               match capture with
               | None -> ()
               | Some (_, ring, _) ->
                 Obs.Jsonl.write channel
                   { Obs.Event.time = 0.0;
                     kind = Obs.Event.Run_meta { label = name } };
                 Obs.Jsonl.write_events channel (Obs.Ring.to_list ring))
             captures));
    (match stats_json_file with
     | None -> ()
     | Some path ->
       let json =
         Obs.Json.Obj
           (List.map
              (fun (name, capture, table, metrics) ->
                let row =
                  Sim.Metrics.row metrics
                  @ List.map
                      (fun (key, value) -> ("lock." ^ key, value))
                      (Lockmgr.Lock_stats.row (Lockmgr.Lock_table.stats table))
                  @ (match capture with
                     | Some (_, _, collector) ->
                       Obs.Registry.row (Obs.Collector.registry collector)
                     | None -> [])
                in
                let buckets =
                  match capture with
                  | Some (_, _, collector) ->
                    Obs.Registry.bucket_fields
                      (Obs.Collector.registry collector)
                  | None -> []
                in
                ( name,
                  Obs.Json.Obj
                    (List.map
                       (fun (key, value) -> (key, Obs.Json.Float value))
                       row
                     @ buckets) ))
              captures)
       in
       with_out path (fun channel ->
           Obs.Json.output channel json;
           output_char channel '\n'));
    if !breach_total > 0 then begin
      Fmt.epr "colock: %d SLO breach(es)@." !breach_total;
      exit_slo_breach
    end
    else 0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the concurrency simulator on a generated manufacturing \
             workload and compare techniques; optionally serve live metrics \
             and enforce SLOs while it runs.")
    Term.(const run $ setup_logs $ technique $ jobs_arg $ cells_arg
          $ read_fraction_arg $ seed_arg $ resolution_arg $ victim_arg
          $ backoff_arg $ max_restarts_arg $ restart_policy_arg
          $ admission_arg $ retry_budget_arg $ breaker_arg $ faults_arg
          $ check_invariants_arg $ trace_file $ stats_json_file $ jsonl_file
          $ snapshot_every $ trace_all $ serve_port $ pace $ window_arg
          $ slo_arg)

(* ------------------------------------------------------------------ trace *)

let trace_cmd =
  let technique =
    Arg.(value & opt technique_conv `Proposed
         & info [ "technique"; "t" ] ~docv:"TECH"
             ~doc:"Technique to trace: proposed, rule4, whole-object, \
                   tuple-level.")
  in
  let output =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Chrome trace_event output file ('-' for stdout).")
  in
  let jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Also dump the raw event stream as JSON lines ('-' for \
                   stdout).")
  in
  let run () selector jobs cells read_fraction seed output jsonl =
    let graph, specs =
      manufacturing_scenario ~jobs ~cells ~read_fraction ~seed
    in
    let sink, ring, collector = make_capture () in
    let table =
      Lockmgr.Lock_table.create ~obs:sink
        ~meta:(Colock.Instance_graph.lu_resolver graph) ()
    in
    let technique = technique_of graph table selector in
    let sim_jobs = Sim.Scenario.compile graph technique specs in
    let metrics = Sim.Runner.run ~table sim_jobs in
    let events = Obs.Ring.to_list ring in
    let name = Sim.Scenario.technique_name technique in
    with_out output (fun channel ->
        Obs.Trace.write channel [ (name, events) ]);
    (match jsonl with
     | None -> ()
     | Some path ->
       with_out path (fun channel -> Obs.Jsonl.write_events channel events));
    if not (String.equal output "-") then begin
      let registry = Obs.Collector.registry collector in
      Printf.printf "%s: captured %d event(s) (%d dropped) from %d job(s)\n"
        name (List.length events) (Obs.Ring.dropped ring) jobs;
      Printf.printf
        "committed %d, gave up %d, makespan %d, lock waits observed %d\n"
        metrics.Sim.Metrics.committed metrics.Sim.Metrics.gave_up
        metrics.Sim.Metrics.makespan
        (Obs.Registry.counter registry "events.lock_waited");
      Printf.printf "trace written to %s\n" output
    end;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one simulated workload with full event capture and export \
             a Chrome trace_event file (chrome://tracing, Perfetto).")
    Term.(const run $ setup_logs $ technique $ jobs_arg $ cells_arg
          $ read_fraction_arg $ seed_arg $ output $ jsonl)

(* ------------------------------------------------------------ serve / top *)

let trace_pos_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"TRACE"
           ~doc:"A JSONL event trace, as written by $(b,colock simulate \
                 --jsonl) or $(b,colock trace --jsonl).")

let load_trace path =
  let events, errors = Obs.Jsonl.load path in
  List.iter (fun message -> Fmt.epr "colock: %s: %s@." path message) errors;
  if events = [] then begin
    Fmt.epr "colock: %s: no decodable events@." path;
    exit 1
  end;
  events

(* Streams a JSONL trace run by run in constant memory (soak traces run
   to millions of lines), split by [Obs.Spans.splitter]: [start] opens a
   per-run accumulator when the run's first event arrives, [push] feeds it,
   [flush label run] closes it. A trace with no delimiter at all is
   labelled ["run-0"], with a warning on stderr. Malformed lines are
   diagnosed as FILE: line N; returns how many events decoded. *)
let stream_runs path ~start ~push ~flush =
  let decoded = ref 0 in
  (* only the last run can be unlabelled and end the stream: then the
     trace had no delimiter at all *)
  let ending = ref false in
  let splitter =
    Obs.Spans.splitter ~start ~push ~flush:(fun label run ->
        match label with
        | None when !ending ->
          Fmt.epr
            "colock: %s: no Run_meta delimiter; labelling the whole trace \
             run-0@."
            path;
          flush (Some "run-0") run
        | Some _ | None -> flush label run)
  in
  Obs.Jsonl.with_file path (fun in_channel ->
    Obs.Jsonl.iter
      ~on_error:(fun message -> Fmt.epr "colock: %s: %s@." path message)
      in_channel
      (fun event ->
        incr decoded;
        Obs.Spans.split splitter event));
  ending := true;
  Obs.Spans.end_split splitter;
  !decoded

(* A monitor (plus optional SLO watch) fed by a fresh sink — the replay
   pipeline behind both [colock serve] and [colock top]. *)
let make_replay ~window slo_file =
  let monitor = Obs.Monitor.create ~span:window () in
  let sink = Obs.Sink.create [] in
  Obs.Sink.attach sink (Obs.Monitor.handle monitor);
  let watch =
    Option.map
      (fun slo ->
        let watch = Obs.Slo.watch ~sink slo monitor in
        Obs.Sink.attach sink (Obs.Slo.handler watch);
        watch)
      (load_slo slo_file)
  in
  (monitor, sink, watch)

let serve_cmd =
  let port =
    Arg.(value & opt int 9090
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Listen on 127.0.0.1:$(docv); 0 picks an ephemeral port.")
  in
  let rate =
    Arg.(value & opt float 1000.0
         & info [ "rate" ] ~docv:"TICKS/SEC"
             ~doc:"Replay speed: virtual ticks per wall second (0 = replay \
                   instantly).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Exit after the replay finishes instead of serving the \
                   final snapshot until interrupted (smoke tests, scripts).")
  in
  let run () trace port rate window slo_file once =
    let events = load_trace trace in
    let monitor, sink, watch = make_replay ~window slo_file in
    let server = start_metrics_server ~port monitor (fun () -> Some sink) in
    let last = ref 0.0 in
    List.iter
      (fun event ->
        (match event.Obs.Event.kind with
         | Obs.Event.Run_meta _ -> last := event.Obs.Event.time
         | _ ->
           let delta = event.Obs.Event.time -. !last in
           if delta > 0.0 && rate > 0.0 then Unix.sleepf (delta /. rate);
           last := event.Obs.Event.time);
        Obs.Sink.emit_at sink ~time:event.Obs.Event.time event.Obs.Event.kind)
      events;
    (match watch with
     | Some watch -> ignore (Obs.Slo.finish watch ~time:!last : int)
     | None -> ());
    Printf.eprintf "colock: replayed %d event(s) from %s\n%!"
      (List.length events) trace;
    if not once then begin
      Printf.eprintf "colock: serving final snapshot — interrupt to stop\n%!";
      let rec hold () =
        Unix.sleep 3600;
        hold ()
      in
      hold ()
    end;
    Obs.Http.stop server;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Replay a JSONL event trace at a given rate behind a live \
             Prometheus $(b,/metrics) endpoint — rehearse dashboards and \
             alert rules against recorded contention.")
    Term.(const run $ setup_logs $ trace_pos_arg $ port $ rate $ window_arg
          $ slo_arg $ once)

let top_cmd =
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render one plain-text frame per run in the trace and \
                   exit (deterministic; no ANSI escapes).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Seconds between live screen refreshes.")
  in
  let rate =
    Arg.(value & opt float 1000.0
         & info [ "rate" ] ~docv:"TICKS/SEC"
             ~doc:"Replay speed: virtual ticks per wall second (0 = replay \
                   instantly).")
  in
  let top =
    Arg.(value & opt int 8
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows in the hot-resources panel.")
  in
  let run () trace once interval rate top window slo_file =
    let events = load_trace trace in
    let monitor, sink, watch = make_replay ~window slo_file in
    if once then begin
      (* instant replay; a Run_meta boundary flushes the finished run's
         frame before the monitor resets for the next one *)
      let since_meta = ref 0 and frames = ref 0 in
      let flush () =
        if !since_meta > 0 then begin
          (match watch with
           | Some watch ->
             ignore
               (Obs.Slo.finish watch ~time:(Obs.Monitor.now monitor) : int)
           | None -> ());
          if !frames > 0 then print_newline ();
          print_string (render_dashboard ~top monitor watch);
          incr frames;
          since_meta := 0
        end
      in
      List.iter
        (fun event ->
          (match event.Obs.Event.kind with
           | Obs.Event.Run_meta _ -> flush ()
           | _ -> incr since_meta);
          Obs.Sink.emit_at sink ~time:event.Obs.Event.time
            event.Obs.Event.kind)
        events;
      flush ();
      0
    end
    else begin
      let clear () = print_string "\027[2J\027[H" in
      let render () =
        clear ();
        print_string (render_dashboard ~color:true ~top monitor watch);
        flush stdout
      in
      let next_render = ref (Unix.gettimeofday ()) in
      let last = ref 0.0 in
      List.iter
        (fun event ->
          (match event.Obs.Event.kind with
           | Obs.Event.Run_meta _ -> last := event.Obs.Event.time
           | _ ->
             let delta = event.Obs.Event.time -. !last in
             if delta > 0.0 && rate > 0.0 then Unix.sleepf (delta /. rate);
             last := event.Obs.Event.time);
          Obs.Sink.emit_at sink ~time:event.Obs.Event.time
            event.Obs.Event.kind;
          if Unix.gettimeofday () >= !next_render then begin
            render ();
            next_render := Unix.gettimeofday () +. interval
          end)
        events;
      (match watch with
       | Some watch -> ignore (Obs.Slo.finish watch ~time:!last : int)
       | None -> ());
      render ();
      0
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"A terminal dashboard over a JSONL event trace: throughput, \
             windowed wait quantiles, abort taxonomy, hot resources and SLO \
             status, refreshed as the trace replays.")
    Term.(const run $ setup_logs $ trace_pos_arg $ once $ interval $ rate
          $ top $ window_arg $ slo_arg)

(* ---------------------------------------------------------------- analyze *)

let analyze_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the contention report(s) as JSON instead of tables.")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows to show in the hot-resource and critical-path \
                   tables (text output only).")
  in
  let run () trace json top =
    let first = ref true in
    let json_reports = ref [] in
    let decoded =
      stream_runs trace
        ~start:(fun () -> Obs.Profile.create ())
        ~push:Obs.Profile.handle
        ~flush:(fun label profile ->
          let report = Obs.Profile.finish ?label profile in
          if json then
            json_reports := Obs.Profile.to_json report :: !json_reports
          else begin
            if not !first then print_newline ();
            first := false;
            Obs.Profile.print ~top stdout report
          end)
    in
    if decoded = 0 then begin
      Fmt.epr "colock: %s: no decodable events@." trace;
      1
    end
    else begin
      if json then begin
        Obs.Json.output stdout (Obs.Json.List (List.rev !json_reports));
        print_newline ()
      end;
      0
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Fold a JSONL event trace into a contention report: blocked \
             time attributed to lockable-unit levels (BLU/HoLU/HeLU), graph \
             depths, hot resources, a waiter-by-holder conflict matrix, \
             abort causes and per-transaction wait critical paths.")
    Term.(const run $ setup_logs $ trace_pos_arg $ json_flag $ top_arg)

(* ---------------------------------------------------------------- certify *)

let certify_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the certificate(s) as JSON instead of text.")
  in
  let dot_flag =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the serialization graph(s) as Graphviz DOT, with \
                   the counterexample cycle's nodes and edges in red.")
  in
  let run () trace json dot =
    let modes = Lockmgr.Lock_mode.certify_modes in
    let first = ref true in
    let json_certs = ref [] in
    let violations = ref 0 in
    let decoded =
      stream_runs trace
        ~start:(fun () -> Obs.Certify.create ~modes ())
        ~push:Obs.Certify.handle
        ~flush:(fun label certifier ->
          let cert = Obs.Certify.finish ?label certifier in
          violations :=
            !violations + List.length cert.Obs.Certify.violations;
          if json then json_certs := Obs.Certify.to_json cert :: !json_certs
          else begin
            if not !first then print_newline ();
            first := false;
            if dot then Obs.Dot.print stdout cert
            else Obs.Certify.print stdout cert
          end)
    in
    if decoded = 0 then begin
      Fmt.epr "colock: %s: no decodable events@." trace;
      1
    end
    else begin
      if json then begin
        Obs.Json.output stdout (Obs.Json.List (List.rev !json_certs));
        print_newline ()
      end;
      if !violations > 0 then exit_slo_breach else 0
    end
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Certify a JSONL event trace, one certificate per \
             $(b,Run_meta)-delimited run: conflict-serializability (the \
             serialization graph over committed transactions must be \
             acyclic; a minimal counterexample cycle is reported \
             otherwise), 2PL membership (no new privilege after the first \
             uncovered release), and hierarchy compliance per the paper's \
             rules 1-4' (ancestor intentions cover every inner-unit grant; \
             escalations match the supremum matrix). Exit 3 on any \
             violation, like an SLO breach.")
    Term.(const run $ setup_logs $ trace_pos_arg $ json_flag $ dot_flag)

(* --------------------------------------------------------- explain/flame *)

let explain_cmd =
  let txn_arg =
    Arg.(value & opt (some int) None
         & info [ "txn" ] ~docv:"ID"
             ~doc:"Explain one transaction: its span tree (begin, each wait \
                   with per-blocker blame shares, commit/abort). Without \
                   it, print the per-run blame summaries.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the blame report(s) as JSON instead of text.")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows in the top-blockers table (summary text output \
                   only).")
  in
  let run () trace txn json top =
    let events = load_trace trace in
    let reports = Obs.Blame.of_trace events in
    if json then begin
      Obs.Json.output stdout
        (Obs.Json.List (List.map Obs.Blame.to_json reports));
      print_newline ();
      0
    end
    else
      match txn with
      | None ->
        List.iteri
          (fun index report ->
            if index > 0 then print_newline ();
            Obs.Blame.print ~top stdout report)
          reports;
        0
      | Some txn ->
        let holds report =
          List.exists
            (fun { Obs.Blame.x_txn; _ } -> x_txn = txn)
            report.Obs.Blame.txns
        in
        if not (List.exists holds reports) then begin
          Fmt.epr "colock: %s: transaction T%d not in trace@." trace txn;
          1
        end
        else begin
          List.iter
            (fun report ->
              if holds report then Obs.Blame.print_explain stdout report ~txn)
            reports;
          0
        end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Causal blame for a JSONL event trace: every wait split across \
             the holders that caused it, summed per blocker. With \
             $(b,--txn), one transaction's full span tree.")
    Term.(const run $ setup_logs $ trace_pos_arg $ txn_arg $ json_flag $ top_arg)

let flame_cmd =
  let run () trace =
    let events = load_trace trace in
    let flames = Obs.Flame.of_trace events in
    List.iteri
      (fun index flame ->
        if index > 0 then print_newline ();
        (match Obs.Flame.label flame with
         | Some label when List.length flames > 1 ->
           (* headers only when several runs share the stream; a single
              run stays pure folded-stacks for flamegraph.pl *)
           Printf.printf "# run: %s\n" label
         | Some _ | None -> ());
        Obs.Flame.print stdout flame)
      flames;
    0
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:"Fold a JSONL event trace's blocked time into flamegraph.pl \
             folded-stacks lines: one stack per instance-graph path (entry \
             point down to the inner lockable unit) with the requested \
             mode as leaf, weighted by blocked ticks.")
    Term.(const run $ setup_logs $ trace_pos_arg)

(* -------------------------------------------------------------------- why *)

let why_cmd =
  let base_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASE"
             ~doc:"The known-good JSONL event trace.")
  in
  let cand_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CAND"
             ~doc:"The candidate JSONL event trace whose wait-time delta \
                   against $(b,BASE) wants explaining.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the differential report(s) as JSON instead of \
                   tables.")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows in the resource, conflict-cell and blocker delta \
                   tables (text output only; ties break lexicographically \
                   so the cut is deterministic).")
  in
  let run_arg =
    Arg.(value & opt (some string) None
         & info [ "run" ] ~docv:"LABEL"
             ~doc:"Diff only the run labelled $(docv) (multi-run traces).")
  in
  let run () base cand json top run_label =
    let base_events = load_trace base in
    let cand_events = load_trace cand in
    let pairing = Obs.Diff.of_traces ~base:base_events ~cand:cand_events in
    let selected =
      match run_label with
      | None -> Some pairing
      | Some wanted -> (
        match
          List.filter
            (fun (report : Obs.Diff.report) -> report.label = Some wanted)
            pairing.Obs.Diff.pairs
        with
        | [] -> None
        | pairs -> Some { Obs.Diff.pairs; only_base = []; only_cand = [] })
    in
    match selected with
    | None ->
      let wanted = Option.value ~default:"" run_label in
      let known =
        List.sort_uniq String.compare
          (List.filter_map
             (fun (report : Obs.Diff.report) -> report.label)
             pairing.Obs.Diff.pairs
           @ pairing.Obs.Diff.only_base @ pairing.Obs.Diff.only_cand)
      in
      Fmt.epr "colock: run %S not paired between %s and %s (runs: %s)@."
        wanted base cand
        (if known = [] then "none" else String.concat ", " known);
      1
    | Some pairing ->
      if json then begin
        Obs.Json.output stdout (Obs.Diff.pairing_to_json pairing);
        print_newline ()
      end
      else begin
        List.iteri
          (fun index report ->
            if index > 0 then print_newline ();
            Obs.Diff.print ~top stdout report)
          pairing.Obs.Diff.pairs;
        Obs.Diff.print_drift stdout pairing
      end;
      0
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Explain a performance delta: diff two JSONL event traces and \
             attribute the wait-time change across lockable-unit levels, \
             graph depths, resources, conflict cells and blockers — every \
             table sums exactly to the total delta, with one-sided runs \
             and keys reported as explicit drift.")
    Term.(const run $ setup_logs $ base_arg $ cand_arg $ json_flag $ top_arg
          $ run_arg)

(* ----------------------------------------------------------------- trends *)

let trends_cmd =
  let history_arg =
    Arg.(value & pos 0 string "BENCH_HISTORY.jsonl"
         & info [] ~docv:"HISTORY"
             ~doc:"The append-only run-history store (one versioned JSON \
                   record per line), as appended by $(b,bench/main) and \
                   $(b,colock bench diff).")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the trajectories as JSON instead of text.")
  in
  let metric_arg =
    Arg.(value & opt (some string) None
         & info [ "metric" ] ~docv:"KEY"
             ~doc:"Render only trajectories of metric $(docv).")
  in
  let run () path json metric =
    let records, diagnostics = Bench.History.load path in
    List.iter
      (fun message -> Fmt.epr "colock: %s: %s@." path message)
      diagnostics;
    if records = [] then begin
      Fmt.epr "colock: %s: no history records@." path;
      1
    end
    else begin
      let trends =
        List.filter
          (fun trend ->
            match metric with
            | None -> true
            | Some key -> trend.Bench.History.t_metric = key)
          (Bench.History.trends records)
      in
      if trends = [] then begin
        Fmt.epr "colock: %s: no trajectory for metric %s@." path
          (Option.value ~default:"?" metric);
        1
      end
      else if json then begin
        Obs.Json.output stdout
          (Obs.Json.List (List.map Bench.History.trend_to_json trends));
        print_newline ();
        0
      end
      else begin
        List.iteri
          (fun index trend ->
            let open Bench.History in
            if index > 0 then print_newline ();
            Printf.printf
              "%s %s %s: %d point(s), median %g, band \xc2\xb1%g, %d \
               anomaly(ies)\n"
              trend.t_source trend.t_label trend.t_metric
              (List.length trend.t_points)
              trend.t_median trend.t_band trend.t_anomalies;
            List.iter
              (fun point ->
                Printf.printf "  #%-3d %14g  ewma %14g%s\n" point.pt_seq
                  point.pt_value point.pt_ewma
                  (if point.pt_anomalous then "  ANOMALY" else ""))
              trend.t_points)
          trends;
        0
      end
    end
  in
  Cmd.v
    (Cmd.info "trends"
       ~doc:"Render the run-history store as per-metric trajectories: one \
             EWMA-smoothed series per (source, label, metric), with points \
             outside a scaled-MAD band flagged as anomalies — the perf \
             trajectory across commits, not just the latest gate verdict.")
    Term.(const run $ setup_logs $ history_arg $ json_flag $ metric_arg)

(* ------------------------------------------------------------------- soak *)

(* One scenario × technique run under a live monitor, with the scenario's
   inline SLO rules watching the windows. [?post_mortem] names a directory
   that receives the run's full event capture as JSONL — written only when
   the run breaches an SLO or fails certification, so a red soak always
   leaves a trace behind for [colock why]/[colock analyze]. *)
let soak_run ~quiet ?post_mortem db graph (dsl : Workload.Dsl.t) selector =
  let technique_name = Workload.Dsl.technique_to_string selector in
  let monitor = Obs.Monitor.create ~span:dsl.window () in
  Obs.Monitor.begin_run monitor ~label:(dsl.name ^ "/" ^ technique_name);
  (* the scenario's name rides along as an escaped label, so a /metrics
     scrape of a soak (via sync from another process's trace, or future
     --serve) can tell scenarios apart *)
  Obs.Registry.set_gauge
    (Obs.Monitor.registry monitor)
    (Obs.Expo.labelled "scenario_info" [ ("scenario", dsl.name) ])
    1.0;
  let sink = Obs.Sink.create [ Obs.Monitor.handle monitor ] in
  let ring =
    match post_mortem with
    | None -> None
    | Some _ ->
      let ring = Obs.Ring.create ~capacity:262144 in
      Obs.Sink.attach sink
        (Obs.Sink.filter Obs.Sink.not_sim_step (Obs.Sink.to_ring ring));
      Some ring
  in
  let certifier =
    if dsl.certify then begin
      let certifier =
        Obs.Certify.create ~modes:Lockmgr.Lock_mode.certify_modes ()
      in
      Obs.Sink.attach sink (Obs.Certify.handle certifier);
      Some certifier
    end
    else None
  in
  let watch =
    match dsl.slo with
    | [] -> None
    | rules ->
      let watch = Obs.Slo.watch ~sink (Obs.Slo.of_rules rules) monitor in
      Obs.Sink.attach sink (Obs.Slo.handler watch);
      Some watch
  in
  let table =
    Lockmgr.Lock_table.create ~obs:sink
      ~meta:(Colock.Instance_graph.lu_resolver graph) ()
  in
  let technique = Sim.Scenario.technique_of_dsl graph table selector in
  let jobs =
    Sim.Scenario.compile graph technique (Sim.Scenario.of_dsl db graph dsl)
  in
  let metrics =
    Sim.Runner.run
      ~config:(Sim.Scenario.config_of_dsl dsl)
      ~faults:(Sim.Scenario.faults_of_dsl dsl) ~obs:sink ~table jobs
  in
  let breaches =
    match watch with
    | None -> 0
    | Some watch ->
      Obs.Slo.finish watch
        ~time:(float_of_int metrics.Sim.Metrics.makespan)
  in
  let certificate =
    Option.map
      (fun certifier ->
        Obs.Certify.finish
          ~label:(dsl.name ^ "/" ^ technique_name)
          certifier)
      certifier
  in
  if not quiet then begin
    Printf.printf "%-19s %-14s %9d %6d %6d %5d %7d %8d %7.2f %8d\n" dsl.name
      technique_name metrics.Sim.Metrics.committed
      (metrics.Sim.Metrics.deadlock_aborts + metrics.Sim.Metrics.timeout_aborts
       + metrics.Sim.Metrics.wdl_aborts)
      metrics.Sim.Metrics.gave_up metrics.Sim.Metrics.shed
      metrics.Sim.Metrics.crashed metrics.Sim.Metrics.makespan
      (Sim.Metrics.throughput metrics)
      breaches;
    if breaches > 0 then
      print_verdicts
        ~label:("  " ^ dsl.name)
        (match watch with
         | Some watch -> Obs.Slo.evaluate (Obs.Slo.watched watch) monitor
         | None -> [])
  end;
  (* a certified run stays silent; a violation names itself even under
     --quiet, since it is the whole point of the stanza *)
  (match certificate with
   | Some cert when not (Obs.Certify.certified cert) ->
     Printf.printf "  %s/%s: NOT CERTIFIED: %d violation(s)\n" dsl.name
       technique_name
       (List.length cert.Obs.Certify.violations);
     List.iter
       (fun violation ->
         Printf.printf "    %s\n"
           (Format.asprintf "%a" Obs.Certify.pp_violation violation))
       cert.Obs.Certify.violations
   | Some _ | None -> ());
  let cert_violations =
    match certificate with
    | None -> 0
    | Some cert -> List.length cert.Obs.Certify.violations
  in
  (match post_mortem, ring with
   | Some dir, Some ring when breaches > 0 || cert_violations > 0 ->
     (try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let label = dsl.name ^ "/" ^ technique_name in
     let path =
       Filename.concat dir (dsl.name ^ "-" ^ technique_name ^ ".jsonl")
     in
     let events = Obs.Ring.to_list ring in
     with_out path (fun channel ->
         Obs.Jsonl.write_events channel
           ({ Obs.Event.time = 0.0; kind = Obs.Event.Run_meta { label } }
            :: events));
     Printf.printf "  post-mortem: %s (%d event(s))\n" path
       (List.length events)
   | _ -> ());
  (breaches, certificate <> None, cert_violations)

let soak_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:"A scenario file ($(b,*.scn)) or a directory holding a \
                   suite of them (sorted, non-recursive).")
  in
  let parse_only =
    Arg.(value & flag
         & info [ "parse-only" ]
             ~doc:"Parse every scenario and print it back in canonical \
                   form instead of running — the round-trip check behind \
                   the fixture tests.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Print only the summary line.")
  in
  let post_mortem_arg =
    Arg.(value & opt string "post-mortem"
         & info [ "post-mortem" ] ~docv:"DIR"
             ~doc:"Capture the full event stream of every SLO-breaching or \
                   uncertified run into $(docv) as \
                   $(b,SCENARIO-TECHNIQUE.jsonl), ready for $(b,colock \
                   why) / $(b,colock analyze). An empty $(docv) disables \
                   the capture.")
  in
  let run () path parse_only quiet post_mortem_dir =
    let post_mortem =
      if post_mortem_dir = "" then None else Some post_mortem_dir
    in
    match Workload.Dsl.load_path path with
    | Error message ->
      Fmt.epr "colock: %s@." message;
      1
    | Ok [] ->
      Fmt.epr "colock: %s: no scenarios@." path;
      1
    | Ok scenarios ->
      if parse_only then begin
        List.iteri
          (fun index dsl ->
            if index > 0 then print_newline ();
            print_string (Workload.Dsl.print dsl))
          scenarios;
        0
      end
      else begin
        if not quiet then
          Printf.printf "%-19s %-14s %9s %6s %6s %5s %7s %8s %7s %8s\n"
            "scenario" "technique" "committed" "aborts" "gaveup" "shed"
            "crashed" "makespan" "thruput" "breaches";
        let runs = ref 0 in
        let certified_runs = ref 0 in
        let clean_runs = ref 0 in
        let violation_total = ref 0 in
        let breach_total =
          List.fold_left
            (fun total (dsl : Workload.Dsl.t) ->
              let db = Workload.Dsl.database dsl in
              let graph = Colock.Instance_graph.build db in
              List.fold_left
                (fun total selector ->
                  incr runs;
                  let breaches, certified, violations =
                    soak_run ~quiet ?post_mortem db graph dsl selector
                  in
                  if certified then begin
                    incr certified_runs;
                    if violations = 0 then incr clean_runs
                  end;
                  violation_total := !violation_total + violations;
                  total + breaches)
                total dsl.techniques)
            0 scenarios
        in
        Printf.printf "soak: %d run(s), %d scenario(s), %d breach(es)%s\n"
          !runs (List.length scenarios) breach_total
          (if !certified_runs = 0 then ""
           else Printf.sprintf ", %d/%d certified" !clean_runs !certified_runs);
        if breach_total > 0 || !violation_total > 0 then exit_slo_breach
        else 0
      end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run a committed scenario suite (declarative $(b,.scn) files: \
             catalog scale, arrival process, Zipf popularity, operation \
             mix, faults, inline SLO rules) under the live monitor; exit 3 \
             if any scenario breaches its SLOs, leaving each breaching \
             run's event capture in the post-mortem directory.")
    Term.(const run $ setup_logs $ path_arg $ parse_only $ quiet
          $ post_mortem_arg)

(* ------------------------------------------------------------------ bench *)

let bench_diff_cmd =
  let scenarios_arg =
    Arg.(value & opt string "scenarios"
         & info [ "scenarios" ] ~docv:"PATH"
             ~doc:"Scenario file or directory to measure.")
  in
  let baseline_arg =
    Arg.(value & opt string "BENCH_scenarios.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"The committed baseline store to compare against.")
  in
  let update_arg =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"Write the fresh measurement to the baseline file \
                   instead of comparing.")
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"List every metric comparison, not only the ones \
                   outside their tolerance band.")
  in
  let perturb_arg =
    let parse text =
      match String.index_opt text '=' with
      | Some eq -> (
        let metric = String.sub text 0 eq in
        let factor =
          String.sub text (eq + 1) (String.length text - eq - 1)
        in
        match float_of_string_opt factor with
        | Some factor when metric <> "" -> Ok (metric, factor)
        | _ -> Error (`Msg (Printf.sprintf "bad perturbation %S" text)))
      | None ->
        Error
          (`Msg (Printf.sprintf "bad perturbation %S (want METRIC=FACTOR)"
                   text))
    in
    let print ppf (metric, factor) = Fmt.pf ppf "%s=%g" metric factor in
    Arg.(value & opt_all (conv (parse, print)) []
         & info [ "perturb" ] ~docv:"METRIC=FACTOR"
             ~doc:"Scale a fresh metric by $(b,FACTOR) before comparing — \
                   a sensitivity self-test proving the gate fires \
                   (repeatable).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the gate verdict as machine-readable JSON (metric \
                   family, band direction, observed vs baseline) instead \
                   of tables; exit codes are unchanged.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Re-run every regressed scenario × technique pair with a \
                   JSONL event capture and append a ranked attribution \
                   (worst metric families first, plus the capture's \
                   hottest levels and resources) to the failure output. \
                   Captures land in $(b,bench-explain/).")
  in
  let history_arg =
    Arg.(value & opt string "BENCH_HISTORY.jsonl"
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Append one aggregate record per unperturbed gate run to \
                   the run-history store $(docv) (see $(b,colock trends)). \
                   An empty $(docv) disables the append.")
  in
  let verdict_row finding =
    let open Bench.Baseline in
    let status, detail =
      match finding.f_verdict with
      | Within { delta } -> ("within", Printf.sprintf "%+g" delta)
      | Improved { delta } -> ("IMPROVED", Printf.sprintf "%+g" delta)
      | Regressed { delta; slack } ->
        ("REGRESSED", Printf.sprintf "%+g (slack %g)" delta slack)
    in
    Printf.printf "%-10s %-14s %-22s %12g %12g  %-9s %s\n" finding.f_scenario
      finding.f_technique finding.f_metric finding.f_base finding.f_fresh
      status detail
  in
  (* --explain: one ranked-attribution stanza per regressed pair, worst
     excess (amount past the band, in the bad direction) first. *)
  let explain_pair scenarios regressions (scenario, technique) =
    let findings =
      List.filter
        (fun finding ->
          finding.Bench.Baseline.f_scenario = scenario
          && finding.Bench.Baseline.f_technique = technique)
        regressions
    in
    let excess finding =
      match finding.Bench.Baseline.f_verdict with
      | Bench.Baseline.Regressed { delta; slack } ->
        if Float.is_nan delta then Float.infinity
        else
          let { Bench.Baseline.direction; _ } =
            Bench.Baseline.band finding.Bench.Baseline.f_metric
          in
          let worse =
            match direction with
            | Bench.Baseline.Lower_better -> delta
            | Bench.Baseline.Higher_better -> -.delta
          in
          worse -. slack
      | _ -> 0.0
    in
    let ranked =
      List.sort
        (fun a b ->
          match Float.compare (excess b) (excess a) with
          | 0 ->
            String.compare a.Bench.Baseline.f_metric b.Bench.Baseline.f_metric
          | order -> order)
        findings
    in
    Printf.printf "explain: %s/%s: %d regressed metric(s)\n" scenario
      technique (List.length ranked);
    List.iteri
      (fun index finding ->
        let open Bench.Baseline in
        let detail =
          match finding.f_verdict with
          | Regressed { delta; slack = _ } when Float.is_nan delta ->
            "present on one side only"
          | Regressed { delta; slack } ->
            Printf.sprintf "%+g, excess %g over slack %g" delta
              (excess finding) slack
          | Within { delta } | Improved { delta } ->
            Printf.sprintf "%+g" delta
        in
        Printf.printf "  %d. %-17s %-22s %s\n" (index + 1)
          (family finding.f_metric) finding.f_metric detail)
      ranked;
    (* re-run the pair with a capture so the regression has a trace *)
    match
      List.find_opt
        (fun (dsl : Workload.Dsl.t) -> dsl.name = scenario)
        scenarios
    with
    | None -> ()
    | Some dsl -> (
      match
        List.find_opt
          (fun selector ->
            Workload.Dsl.technique_to_string selector = technique)
          dsl.techniques
      with
      | None -> ()
      | Some selector ->
        let db = Workload.Dsl.database dsl in
        let graph = Colock.Instance_graph.build db in
        let _run, events =
          Bench.Baseline.measure_traced db graph dsl selector
        in
        let label = scenario ^ "/" ^ technique in
        let profile = Obs.Profile.of_events ~label events in
        let rec take n = function
          | [] -> []
          | _ when n <= 0 -> []
          | head :: rest -> head :: take (n - 1) rest
        in
        let dir = "bench-explain" in
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path =
          Filename.concat dir (scenario ^ "-" ^ technique ^ ".jsonl")
        in
        with_out path (fun channel ->
            Obs.Jsonl.write_events channel
              ({ Obs.Event.time = 0.0; kind = Obs.Event.Run_meta { label } }
               :: events));
        Printf.printf
          "  capture: %s (%d event(s), %g tick(s) blocked across %d \
           wait(s))\n"
          path (List.length events) profile.Obs.Profile.total_blocked
          profile.Obs.Profile.wait_count;
        (match take 3 profile.Obs.Profile.levels with
         | [] -> ()
         | levels ->
           Printf.printf "  hot levels: %s\n"
             (String.concat ", "
                (List.map
                   (fun stat ->
                     Printf.sprintf "%s %g" stat.Obs.Profile.v_level
                       stat.Obs.Profile.v_blocked)
                   levels)));
        (match take 3 profile.Obs.Profile.resources with
         | [] -> ()
         | resources ->
           Printf.printf "  hot resources: %s\n"
             (String.concat ", "
                (List.map
                   (fun stat ->
                     Printf.sprintf "%s %g" stat.Obs.Profile.r_resource
                       stat.Obs.Profile.r_blocked)
                   resources))))
  in
  let run () scenarios_path baseline_path update all perturbations json
      explain history_path =
    match Workload.Dsl.load_path scenarios_path with
    | Error message ->
      Fmt.epr "colock: %s@." message;
      1
    | Ok scenarios -> (
      match
        Bench.Baseline.perturb perturbations (Bench.Baseline.collect scenarios)
      with
      | Error message ->
        Fmt.epr "colock: %s@." message;
        1
      | Ok fresh ->
      if update then begin
        Bench.Baseline.save baseline_path fresh;
        Printf.printf "bench diff: wrote %s (%d run(s))\n" baseline_path
          (List.length fresh);
        0
      end
      else begin
        match Bench.Baseline.load baseline_path with
        | Error message ->
          Fmt.epr "colock: %s: %s@." baseline_path message;
          1
        | Ok baseline ->
          let report = Bench.Baseline.diff ~baseline ~fresh in
          let regressions = Bench.Baseline.regressions report in
          let improvements = Bench.Baseline.improvements report in
          if json then begin
            Obs.Json.output stdout (Bench.Baseline.diff_to_json ~all report);
            print_newline ()
          end
          else begin
            let shown =
              if all then report.Bench.Baseline.findings
              else regressions @ improvements
            in
            if shown <> [] then begin
              Printf.printf "%-10s %-14s %-22s %12s %12s  %-9s %s\n"
                "scenario" "technique" "metric" "baseline" "fresh" "status"
                "delta";
              List.iter verdict_row shown
            end;
            List.iter
              (fun (scenario, technique) ->
                Printf.printf "missing: %s/%s (in baseline, not measured)\n"
                  scenario technique)
              report.Bench.Baseline.missing;
            List.iter
              (fun (scenario, technique) ->
                Printf.printf
                  "added: %s/%s (measured, not in baseline — rerun with \
                   --update-baseline)\n"
                  scenario technique)
              report.Bench.Baseline.added;
            Printf.printf
              "bench diff: %d comparison(s), %d regression(s), %d \
               improvement(s)\n"
              (List.length report.Bench.Baseline.findings)
              (List.length regressions)
              (List.length improvements)
          end;
          (* the trajectory records honest gate runs only: a --perturb run
             measures the self-test, not the code *)
          if perturbations = [] && history_path <> "" then begin
            let total key =
              List.fold_left
                (fun sum (run : Bench.Baseline.run) ->
                  sum
                  +. Option.value ~default:0.0
                       (List.assoc_opt key run.Bench.Baseline.metrics))
                0.0 fresh
            in
            let record =
              Bench.History.append ~path:history_path ~source:"bench-diff"
                ~label:scenarios_path
                [ ("committed", total "committed");
                  ("throughput", total "throughput");
                  ("total_wait", total "total_wait");
                  ("makespan", total "makespan");
                  ( "comparisons",
                    float_of_int
                      (List.length report.Bench.Baseline.findings) );
                  ("regressions", float_of_int (List.length regressions));
                  ("improvements", float_of_int (List.length improvements))
                ]
            in
            if not json then
              Printf.printf "bench diff: history seq %d -> %s\n"
                record.Bench.History.seq history_path
          end;
          if explain && regressions <> [] then begin
            let pairs =
              List.sort_uniq compare
                (List.map
                   (fun finding ->
                     ( finding.Bench.Baseline.f_scenario,
                       finding.Bench.Baseline.f_technique ))
                   regressions)
            in
            List.iter (explain_pair scenarios regressions) pairs
          end;
          if Bench.Baseline.clean report then 0 else 2
      end)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Re-measure the scenario suite and compare against the \
             committed baseline through per-metric tolerance bands; exit 2 \
             on regressions (or baseline drift), with $(b,--explain) \
             attaching a ranked attribution and event capture to every \
             regressed pair.")
    Term.(const run $ setup_logs $ scenarios_arg $ baseline_arg $ update_arg
          $ all_arg $ perturb_arg $ json_arg $ explain_arg $ history_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark baseline management: track the perf trajectory of \
             the committed scenario suite.")
    [ bench_diff_cmd ]

let () =
  let info =
    Cmd.info "colock" ~version:"0.1.0"
      ~doc:"A lock technique for disjoint and non-disjoint complex objects \
            (Herrmann et al., EDBT 1990)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ graph_cmd; plan_cmd; query_cmd; simulate_cmd; trace_cmd;
            serve_cmd; top_cmd; analyze_cmd; certify_cmd; explain_cmd;
            flame_cmd; why_cmd; trends_cmd; soak_cmd; bench_cmd ]))
