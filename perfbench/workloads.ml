(* The benchmark's three workloads, their set-up, and the one timed pass
   every measurement is made of. Why each workload and size was chosen is
   recorded in NOTES.md. *)

module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph

type technique = Whole_object | Proposed

type t = {
  name : string;
  cells : int;
  effectors : int;
  mix : Sim.Scenario.mix;  (* [seed] is replaced by the run's derived seed *)
  technique : technique;
  config : Sim.Runner.config;
  faults : Sim.Fault.spec;  (* [fault_seed] likewise *)
  soak : bool;  (* attach the [colock soak] pipeline *)
  inputs : int;  (* generated inputs per round, each from its own seed *)
}

let base_mix = Sim.Scenario.default_mix

let wo_contention =
  { name = "wo-contention"; cells = 8; effectors = 16;
    mix = { base_mix with jobs = 300; arrival_gap = 10; read_fraction = 0.5 };
    technique = Whole_object; config = Sim.Runner.default_config;
    faults = Sim.Fault.none; soak = false; inputs = 10 }

let proposed_flow =
  { name = "proposed-flow"; cells = 64; effectors = 16;
    mix =
      { base_mix with jobs = 40_000; arrival_gap = 20; read_fraction = 0.5;
        library_update_fraction = 0.1 };
    technique = Proposed; config = Sim.Runner.default_config;
    faults = Sim.Fault.none; soak = false; inputs = 2 }

(* The shape of test/test_chaos.ml's detection soak, at an arrival gap
   below the restart-storm knee (NOTES.md). *)
let proof_soak =
  { name = "proof-soak"; cells = 12; effectors = 32;
    mix =
      { base_mix with jobs = 800; arrival_gap = 100; steps_per_job = 2;
        read_fraction = 0.3 };
    technique = Proposed;
    config =
      { Sim.Runner.default_config with
        backoff = Lockmgr.Policy.Exponential { base = 20; cap = 300; seed = 0 };
        hog_hold = 400; check_invariants = true };
    faults =
      { Sim.Fault.crash = 0.05; stall = 0.1; stall_factor = 2; hog = 0.03;
        fault_seed = 0 };
    soak = true; inputs = 6 }

let all = [ wo_contention; proposed_flow; proof_soak ]

let find name = List.find_opt (fun workload -> workload.name = name) all

(* splitmix64's finaliser: neighbouring run seeds give unrelated workload
   seeds, and the library only ever sees the derived values. *)
let derive seed salt =
  let mix64 z shift factor =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z shift)) factor
  in
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul (Int64.of_int salt) 0x9E3779B97F4A7C15L)
  in
  let z = mix64 z 30 0xBF58476D1CE4E5B9L in
  let z = mix64 z 27 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFF_FFFFL)

(* Generated inputs, shared by every pass of one seed. *)
type prepared = {
  workload : t;
  seed : int;
  graph : Graph.t;
  specs : Sim.Scenario.job_spec list;
  generate_s : float;  (* NF² database generation *)
  build_s : float;  (* [Instance_graph.build] *)
  mix_s : float;  (* job-script generation *)
}

let prepare workload ~seed =
  let db, generate_s =
    Stats.timed (fun () ->
        Workload.Generator.manufacturing
          { Workload.Generator.default_manufacturing with
            cells = workload.cells; effectors = workload.effectors;
            seed = derive seed 1 })
  in
  let graph, build_s = Stats.timed (fun () -> Graph.build db) in
  let specs, mix_s =
    Stats.timed (fun () ->
        Sim.Scenario.manufacturing_mix db graph
          { workload.mix with seed = derive seed 2 })
  in
  { workload; seed; graph; specs; generate_s; build_s; mix_s }

(* The [colock soak] pipeline: a live monitor, an SLO watch over it and a
   streaming certifier, each a handler on the run's sink. *)
type pipeline = {
  watch : Obs.Slo.watch;
  certifier : Obs.Certify.t;
  handlers : (string * (Obs.Event.t -> unit)) list;
}

let slo_rules = "p99_wait < 5000\nabort_rate < 0.8\n"

let soak_pipeline sink =
  let monitor = Obs.Monitor.create ~span:300.0 () in
  Obs.Monitor.begin_run monitor ~label:proof_soak.name;
  let rules =
    match Obs.Slo.parse slo_rules with
    | Ok rules -> rules
    | Error message -> failwith message
  in
  let watch = Obs.Slo.watch ~sink rules monitor in
  let certifier =
    Obs.Certify.create ~modes:Lockmgr.Lock_mode.certify_modes ()
  in
  { watch; certifier;
    handlers =
      [ ("monitor", Obs.Monitor.handle monitor);
        ("slo", Obs.Slo.handler watch);
        ("certify", Obs.Certify.handle certifier) ] }

type outcome = {
  metrics : Sim.Metrics.t;
  jobs : int;
  wall_s : float;  (* [Runner.run], plus the SLO and certify finish *)
  instance_s : float;  (* lock table + [Protocol.create] *)
  compile_s : float;  (* [Scenario.compile] *)
  heap_peak_mb : float;
  certify_finish_s : float;
  certify_edges : int;  (* serialization-graph edges (0 without a certifier) *)
  certify_committed : int;
  problems : string list;  (* failed correctness checks *)
}

(* Runs [f] after a compaction and returns the largest major heap seen at
   the end of any major cycle during it, or at its end, in MiB. *)
let with_heap_peak f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  let result = f () in
  sample ();
  Gc.delete_alarm alarm;
  (result, float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.0)

let rec take count = function
  | item :: rest when count > 0 -> item :: take (count - 1) rest
  | _ -> []

(* One pass over the first [jobs] job scripts. With [?tracer], the plan
   closures, the sink and the clock advances are routed through it. *)
let run_pass ?tracer ?(check_invariants = true) prepared ~jobs =
  let workload = prepared.workload in
  let traced = Option.is_some tracer in
  let sink =
    if workload.soak || traced then Some (Obs.Sink.create []) else None
  in
  let pipeline =
    match sink with
    | Some sink when workload.soak -> Some (soak_pipeline sink)
    | Some _ | None -> None
  in
  let handlers = match pipeline with Some p -> p.handlers | None -> [] in
  let (table, technique), instance_s =
    Stats.timed (fun () ->
        let table =
          Table.create ?obs:sink ~meta:(Graph.lu_resolver prepared.graph) ()
        in
        ( table,
          match workload.technique with
          | Whole_object -> Sim.Scenario.Whole_object
          | Proposed ->
            Sim.Scenario.Proposed (Colock.Protocol.create prepared.graph table)
        ))
  in
  (match sink, tracer with
   | Some sink, Some tracer ->
     Obs.Sink.attach sink (Tracer.handler tracer table handlers)
   | Some sink, None ->
     List.iter (fun (_name, handle) -> Obs.Sink.attach sink handle) handlers
   | None, _ -> ());
  let compiled, compile_s =
    Stats.timed (fun () ->
        Sim.Scenario.compile prepared.graph technique (take jobs prepared.specs))
  in
  let compiled =
    match tracer with
    | Some tracer -> Tracer.wrap_jobs tracer compiled
    | None -> compiled
  in
  let config =
    { workload.config with
      check_invariants = workload.config.check_invariants && check_invariants;
      backoff =
        (match workload.config.backoff with
         | Lockmgr.Policy.Exponential backoff ->
           Lockmgr.Policy.Exponential
             { backoff with seed = derive prepared.seed 3 }
         | backoff -> backoff);
      on_advance = Option.map Tracer.on_advance tracer }
  in
  let faults = { workload.faults with fault_seed = derive prepared.seed 4 } in
  let ((metrics, certificate, certify_finish_s), wall_s), heap_peak_mb =
    with_heap_peak (fun () ->
        Stats.timed (fun () ->
            let metrics =
              Sim.Runner.run ~config ~faults ?obs:sink ~table compiled
            in
            match pipeline with
            | None -> (metrics, None, 0.0)
            | Some pipeline ->
              ignore
                (Obs.Slo.finish pipeline.watch
                   ~time:(float_of_int metrics.Sim.Metrics.makespan));
              let certificate, certify_finish_s =
                Stats.timed (fun () -> Obs.Certify.finish pipeline.certifier)
              in
              (metrics, Some certificate, certify_finish_s)))
  in
  let problems =
    let m = metrics in
    let check ok message acc = if ok then acc else message :: acc in
    []
    |> check
         (m.Sim.Metrics.committed + m.gave_up + m.crashed + m.shed = jobs)
         (Printf.sprintf "%d of %d jobs accounted for"
            (m.committed + m.gave_up + m.crashed + m.shed)
            jobs)
    |> check
         (Table.entry_count table = 0 && Table.waiter_count table = 0)
         (Printf.sprintf "lock table not drained: %d entries, %d waiters"
            (Table.entry_count table) (Table.waiter_count table))
    |> check
         (match certificate with
          | Some certificate -> Obs.Certify.certified certificate
          | None -> true)
         "certificate has violations"
  in
  (* only counts leave the pass: a certificate holds the whole graph, and
     keeping it alive would inflate the heap of later passes *)
  let certify_edges, certify_committed =
    match certificate with
    | Some certificate ->
      (List.length certificate.graph_edges, certificate.committed)
    | None -> (0, 0)
  in
  { metrics; jobs; wall_s; instance_s; compile_s; heap_peak_mb;
    certify_finish_s; certify_edges; certify_committed;
    problems = List.rev problems }

(* Jobs that failed: those that gave up or were shed. Crashes are not
   counted, since the fault plan injects them on purpose. *)
let failed (metrics : Sim.Metrics.t) = metrics.gave_up + metrics.shed
