(* End-to-end metrics (--trace 0), from untraced passes only.

   A round runs every one of the workload's generated inputs twice: the
   timed pass over all its jobs and, for [scale_exp], the same pass over
   the first half of them. After each pass it times the reference task
   ([Stats.reference_s]). Rounds repeat until the run's seconds are spent
   (at least [min_rounds]). Wall-clock metrics are medians over rounds;
   [txn_per_ref] divides each round's pass time by the round's reference
   time, so a slow spell of the host, which slows both alike, cancels
   (NOTES.md, Noise). The deterministic simulator metrics are pooled over
   a round's inputs and must be identical in every round. *)

open Report

type input_run = {
  setup_s : float;
  full : Workloads.outcome;
  half : Workloads.outcome;
  reference_s : float;
}

let min_rounds = 3

let check (outcome : Workloads.outcome) =
  match outcome.problems with
  | [] -> ()
  | problems -> raise (Incorrect (String.concat "; " problems))

(* The seeds of a round's inputs; the held-out seed is none of them. *)
let input_seeds (workload : Workloads.t) seed =
  List.init workload.inputs (fun index -> Workloads.derive seed (index + 1))

let held_out_seed seed = Workloads.derive seed 1000

(* Database generation + [Instance_graph.build] + job scripts + lock table
   and [Protocol.create] + [Scenario.compile]. *)
let setup_s (prepared : Workloads.prepared) (full : Workloads.outcome) =
  prepared.generate_s +. prepared.build_s +. prepared.mix_s
  +. full.instance_s +. full.compile_s

let run_input (workload : Workloads.t) ~seed =
  let prepared = Workloads.prepare workload ~seed in
  let jobs = workload.mix.jobs in
  let full = Workloads.run_pass prepared ~jobs in
  check full;
  let after_full = Stats.reference_s () in
  let half = Workloads.run_pass prepared ~jobs:(jobs / 2) in
  check half;
  let after_half = Stats.reference_s () in
  { setup_s = setup_s prepared full; full; half;
    reference_s = after_full +. after_half }

(* One pass untimed, so heap growth and first-touch costs stay out of the
   rounds. *)
let warm_up (workload : Workloads.t) seed =
  check
    (Workloads.run_pass (Workloads.prepare workload ~seed)
       ~jobs:workload.mix.jobs);
  ignore (Stats.reference_s ())

(* Simulator metrics summed over several runs; makespans add, so the
   library's [throughput] and [avg_response] give the pooled rates. *)
let pool (runs : Sim.Metrics.t list) =
  let sum field = List.fold_left (fun total run -> total + field run) 0 runs in
  { Sim.Metrics.committed = sum (fun m -> m.committed);
    deadlock_aborts = sum (fun m -> m.deadlock_aborts);
    timeout_aborts = sum (fun m -> m.timeout_aborts);
    wdl_aborts = sum (fun m -> m.wdl_aborts);
    gave_up = sum (fun m -> m.gave_up);
    crashed = sum (fun m -> m.crashed);
    shed = sum (fun m -> m.shed);
    retry_denied = sum (fun m -> m.retry_denied);
    makespan = sum (fun m -> m.makespan);
    total_response = sum (fun m -> m.total_response);
    total_wait = sum (fun m -> m.total_wait);
    lock_requests = sum (fun m -> m.lock_requests);
    conflict_tests = sum (fun m -> m.conflict_tests);
    peak_lock_entries = sum (fun m -> m.peak_lock_entries);
    escalations = sum (fun m -> m.escalations) }

(* The deterministic end-to-end metrics of pooled results over [jobs]. *)
let simulator_metrics (pooled : Sim.Metrics.t) ~jobs =
  let per_job count = float_of_int count /. float_of_int jobs in
  [ metric "virt_resp_ticks" (Sim.Metrics.avg_response pooled) "ticks";
    metric "virt_tput" (Sim.Metrics.throughput pooled) "txn/1000ticks";
    metric "committed_frac" (per_job pooled.committed) "ratio";
    metric "attempts_per_job"
      (per_job
         (jobs + pooled.deadlock_aborts + pooled.timeout_aborts
        + pooled.wdl_aborts))
      "attempts/job" ]

let sum f items = List.fold_left (fun total item -> total +. f item) 0.0 items

let run (workload : Workloads.t) ~seed ~seconds =
  let seeds = input_seeds workload seed in
  warm_up workload (List.hd seeds);
  let start = Stats.now_ns () in
  let rec loop rounds =
    let round, took =
      Stats.timed (fun () ->
          List.map (fun seed -> run_input workload ~seed) seeds)
    in
    let rounds = round :: rounds in
    if
      List.length rounds < min_rounds
      || Stats.seconds_since start +. took <= seconds
    then loop rounds
    else List.rev rounds
  in
  let rounds = loop [] in
  let first = List.hd rounds in
  List.iter
    (fun round ->
      List.iter2
        (fun a b ->
          require
            (a.full.metrics = b.full.metrics && a.half.metrics = b.half.metrics)
            "simulator results differ between rounds of one input")
        first round)
    rounds;
  let held_out =
    Workloads.run_pass
      (Workloads.prepare workload ~seed:(held_out_seed seed))
      ~jobs:workload.mix.jobs
  in
  check held_out;
  let per_round f = Stats.median (List.map f rounds) in
  let full_wall round = sum (fun input -> input.full.wall_s) round in
  let half_wall round = sum (fun input -> input.half.wall_s) round in
  let committed round =
    sum (fun input -> float_of_int input.full.metrics.committed) round
  in
  (* the mean time of the round's reference tasks *)
  let reference round =
    sum (fun input -> input.reference_s) round
    /. float_of_int (2 * List.length round)
  in
  let per_round_log f =
    String.concat " "
      (List.map (fun round -> Printf.sprintf "%.3f" (f round)) rounds)
  in
  log "%s: %d round(s) of %d input(s); full passes per round: %s s; half: %s s"
    workload.name (List.length rounds) workload.inputs (per_round_log full_wall)
    (per_round_log half_wall);
  log "%s: reference task per round: %s ms; throughput: %s txn/s" workload.name
    (per_round_log (fun round -> 1000.0 *. reference round))
    (per_round_log (fun round -> committed round /. full_wall round));
  log "%s: held-out seed %d: %.1f txn/s, %d of %d committed" workload.name
    (held_out_seed seed)
    (float_of_int held_out.metrics.committed /. held_out.wall_s)
    held_out.metrics.committed held_out.jobs;
  let outcomes =
    held_out
    :: List.concat_map
         (fun round -> List.concat_map (fun i -> [ i.full; i.half ]) round)
         rounds
  in
  let attempted =
    List.fold_left (fun total (o : Workloads.outcome) -> total + o.jobs) 0
      outcomes
  in
  let failed =
    List.fold_left
      (fun total (o : Workloads.outcome) -> total + Workloads.failed o.metrics)
      0 outcomes
  in
  let metrics =
    [ metric "txn_per_ref"
        (per_round (fun round ->
             committed round /. (full_wall round /. reference round)))
        "txn/ref";
      metric "setup_s"
        (Stats.median
           (List.concat_map (List.map (fun input -> input.setup_s)) rounds))
        "s";
      metric "scale_exp"
        (per_round (fun round -> Float.log2 (full_wall round /. half_wall round)))
        "log2-ratio";
      metric "heap_peak_mb"
        (per_round (fun round ->
             Stats.median (List.map (fun input -> input.full.heap_peak_mb) round)))
        "MiB" ]
    @ simulator_metrics
        (pool (List.map (fun input -> input.full.metrics) first))
        ~jobs:(workload.inputs * workload.mix.jobs)
  in
  (attempted, failed, metrics)
