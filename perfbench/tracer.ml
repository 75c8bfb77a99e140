(* Per-layer wall time for one traced pass, measured from outside the
   library: the benchmark wraps the calls into each layer's public
   functions and times the gaps between the events the layers emit.

   - plan: each [Sim.Runner.step.plan] closure that [Sim.Scenario.compile]
     built is wrapped and timed (protocol or baseline planning).
   - lock table: the gap from [Lock_requested] to the same request's
     immediate [Lock_granted] or its [Lock_waited] (the grant and enqueue
     paths of [Lock_table.request]; releases and queue drains stay in the
     runner's share).
   - deadlock: the gap from [Lock_waited] to the next boundary (next event,
     next plan call or next clock advance) — the runner's waits-for
     rebuild and cycle search for that wait. A shadow [waits_for_edges]
     call in the handler counts the edges that search scans; it runs
     outside every span and is charged to the tracer's own time.
   - obs: each sink handler of the pipeline is called through the tracer
     and timed on its own.

   Every open span is paused while the tracer's handler runs, so handler
   and bookkeeping time never lands in a layer. *)

module Table = Lockmgr.Lock_table
module Samples = Stats.Samples

type span = No_span | Request | Check

type t = {
  capture : bool;  (* keep every event for the offline folds *)
  plan_ns : Samples.t;
  mutable plan_requests : int;
  request_ns : Samples.t;
  check_ns : Samples.t;
  mutable open_span : span;
  mutable span_since : int64;
  mutable span_acc : int;  (* ns of the open span before its last pause *)
  mutable requests : int;
  mutable waits : int;
  mutable queued_at_wait : int;  (* sum of [waiter_count] at each wait *)
  mutable edges : int;  (* sum of waits-for edges at each wait *)
  mutable cycles : int;
  mutable events : int;
  mutable ticks : int;
  handler_ns : (string, int ref) Hashtbl.t;
  mutable own_ns : int;  (* the tracer's handler time minus the handlers' *)
  mutable captured : Obs.Event.t list;  (* newest first *)
}

let create ~capture =
  { capture; plan_ns = Samples.create (); plan_requests = 0;
    request_ns = Samples.create (); check_ns = Samples.create ();
    open_span = No_span; span_since = 0L; span_acc = 0; requests = 0;
    waits = 0; queued_at_wait = 0; edges = 0; cycles = 0; events = 0;
    ticks = 0; handler_ns = Hashtbl.create 4; own_ns = 0; captured = [] }

let elapsed_ns since until = Int64.to_int (Int64.sub until since)

(* Closes the open span at [time], filing its duration under its layer. *)
let close tracer time =
  (match tracer.open_span with
   | No_span -> ()
   | Request ->
     Samples.add tracer.request_ns
       (tracer.span_acc + elapsed_ns tracer.span_since time)
   | Check ->
     Samples.add tracer.check_ns
       (tracer.span_acc + elapsed_ns tracer.span_since time));
  tracer.open_span <- No_span;
  tracer.span_acc <- 0

let open_span tracer kind time =
  tracer.open_span <- kind;
  tracer.span_since <- time;
  tracer.span_acc <- 0

(* A plan call ends whatever deadlock span was open before it. *)
let wrap_plan tracer plan txn =
  let start = Stats.now_ns () in
  (match tracer.open_span with
   | Check -> close tracer start
   | No_span | Request -> ());
  let requests = plan txn in
  Samples.add tracer.plan_ns (elapsed_ns start (Stats.now_ns ()));
  tracer.plan_requests <- tracer.plan_requests + List.length requests;
  requests

let wrap_jobs tracer jobs =
  List.map
    (fun (job : Sim.Runner.job) ->
      { job with
        steps =
          List.map
            (fun (step : Sim.Runner.step) ->
              { step with plan = wrap_plan tracer step.plan })
            job.steps })
    jobs

(* [Runner.config.on_advance]: the virtual clock moves, so the event that
   left a deadlock span open has finished. *)
let on_advance tracer _time =
  tracer.ticks <- tracer.ticks + 1;
  match tracer.open_span with
  | Check -> close tracer (Stats.now_ns ())
  | No_span | Request -> ()

let handler_cell tracer name =
  match Hashtbl.find_opt tracer.handler_ns name with
  | Some cell -> cell
  | None ->
    let cell = ref 0 in
    Hashtbl.replace tracer.handler_ns name cell;
    cell

(* The one handler the traced pass attaches to the table's sink; it calls
   the pipeline's own [handlers] (name, handler) in order, timing each. *)
let handler tracer table handlers =
  let cells =
    List.map (fun (name, handle) -> (handle, handler_cell tracer name)) handlers
  in
  fun (event : Obs.Event.t) ->
    let entry = Stats.now_ns () in
    tracer.events <- tracer.events + 1;
    (* pause (or end) the open span *)
    (match tracer.open_span, event.kind with
     | Request, (Lock_granted { immediate = true; _ } | Lock_waited _) ->
       close tracer entry
     | Request, _ ->
       tracer.span_acc <-
         tracer.span_acc + elapsed_ns tracer.span_since entry
     | Check, _ -> close tracer entry
     | No_span, _ -> ());
    if tracer.capture then tracer.captured <- event :: tracer.captured;
    let handled = ref 0 in
    List.iter
      (fun (handle, cell) ->
        let start = Stats.now_ns () in
        handle event;
        let spent = elapsed_ns start (Stats.now_ns ()) in
        cell := !cell + spent;
        handled := !handled + spent)
      cells;
    let reopen =
      match event.kind with
      | Lock_requested _ ->
        tracer.requests <- tracer.requests + 1;
        Some Request
      | Lock_waited _ ->
        tracer.waits <- tracer.waits + 1;
        tracer.queued_at_wait <- tracer.queued_at_wait + Table.waiter_count table;
        tracer.edges <-
          tracer.edges + List.length (Table.waits_for_edges table);
        Some Check
      | Deadlock_detected _ ->
        tracer.cycles <- tracer.cycles + 1;
        None
      | _ -> None
    in
    let exit = Stats.now_ns () in
    (match reopen, tracer.open_span with
     | Some kind, _ -> open_span tracer kind exit
     | None, Request -> tracer.span_since <- exit
     | None, (No_span | Check) -> ());
    tracer.own_ns <- tracer.own_ns + elapsed_ns entry exit - !handled

let handler_seconds tracer name =
  match Hashtbl.find_opt tracer.handler_ns name with
  | Some cell -> float_of_int !cell *. 1e-9
  | None -> 0.0

let handlers_seconds tracer =
  Hashtbl.fold (fun _ cell sum -> sum +. (float_of_int !cell *. 1e-9))
    tracer.handler_ns 0.0

(* The events captured since the last call, oldest first. *)
let take_captured tracer =
  let events = List.rev tracer.captured in
  tracer.captured <- [];
  events
