(* The live half of the observability stack: a sink handler that folds the
   event stream into gauges (levels right now), sliding windows (rates and
   quantiles of the recent past, labelled by lockable-unit kind) and
   per-resource contention tallies — everything [colock top], the SLO
   engine and the Prometheus endpoint read.

   It owns a Collector on the same registry, so cumulative counters
   ([events.*]) and whole-run histograms ride along for free, and it reads
   its waits from the Collector's span fold, so each wait is paired once;
   the monitor itself only adds what has to be live.  A [Run_meta]
   delimiter resets the whole registry (run isolation when one process
   serves several technique runs) and relabels the monitor. *)

type resource_stat = {
  mutable r_blocked : float;
  mutable r_waits : int;
  mutable r_lu : Event.lu option;
}

type t = {
  registry : Registry.t;
  collector : Collector.t;
  span : float;
  hot_k : int;
  mutex : Mutex.t;
  (* the windows list mirrors the registry's, kept here so per-event
     advancing does not re-sort a hashtable *)
  mutable live_windows : Window.t list;
  (* bounded hot-key state: the sketches admit at most [hot_k] keys, and
     [resources] / the hot_* gauges are evicted in lockstep, so memory and
     exposition cardinality stay O(hot_k) on million-object catalogs *)
  resource_sketch : Sketch.t;
  blocker_sketch : Sketch.t;
  resources : (string, resource_stat) Hashtbl.t;
  mutable breaches : (float * string) list;  (* newest first, capped *)
  mutable label : string option;
  mutable started : float;
  mutable now : float;
  mutable floor : float;  (* [now] when the run began *)
  mutable seen : bool;  (* any event at all (so [started] is meaningful) *)
}

let breach_memory = 32

(* ----------------------------------------------------- instrument names *)

let gauge_active = "active_txns"
let gauge_entries = "lock_entries"
let gauge_depth = "wait_queue_depth"
let gauge_admission = "admission_limit"
let gauge_inflight = "admission_inflight"
let gauge_queued = "admission_queued"
let gauge_shed = "admission_shed"
let gauge_breaker = "breaker_state"
let gauge_retry_denied = "retry_denied"
let window_wait = "window.lock_wait"
let window_grants = "window.grants"
let window_commits = "window.commits"
let window_aborts = "window.aborts"
let window_deadlocks = "window.deadlocks"

let labelled base lu_kind = Printf.sprintf "%s{lu=\"%s\"}" base lu_kind
let hot_resource_gauge resource = Expo.labelled "hot_resource" [ ("resource", resource) ]
let hot_blocker_gauge blocker = Expo.labelled "hot_blocker" [ ("blocker", blocker) ]

(* Numeric encoding of the breaker state machine for the
   [breaker_state] gauge: closed is healthy, open is tripped. *)
let breaker_level = function
  | "closed" -> 0.0
  | "half-open" -> 1.0
  | "open" -> 2.0
  | _ -> -1.0

let registry monitor = monitor.registry
let span monitor = monitor.span
let label monitor = monitor.label
let now monitor = monitor.now
let started monitor = if monitor.seen then monitor.started else 0.0

let locked monitor f =
  Mutex.lock monitor.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock monitor.mutex) f

let window monitor name =
  match Registry.find_window monitor.registry name with
  | Some window -> window
  | None ->
    let window = Registry.window ~span:monitor.span monitor.registry name in
    monitor.live_windows <- window :: monitor.live_windows;
    window

let observe_window monitor name value =
  Window.observe (window monitor name) ~now:monitor.now value

let mark_window monitor name = observe_window monitor name 1.0

let mark_lu monitor base lu =
  match lu with
  | None -> ()
  | Some { Event.lu_kind; _ } -> mark_window monitor (labelled base lu_kind)

let set_gauge monitor name value =
  Registry.set_gauge monitor.registry name (float_of_int value)

let sync_gauges monitor =
  let spans = Collector.spans monitor.collector in
  set_gauge monitor gauge_active (Spans.running spans);
  set_gauge monitor gauge_entries (Spans.held spans);
  set_gauge monitor gauge_depth (Spans.open_waits spans)

let resource_stat monitor resource =
  match Hashtbl.find_opt monitor.resources resource with
  | Some stat -> stat
  | None ->
    let stat = { r_blocked = 0.0; r_waits = 0; r_lu = None } in
    Hashtbl.replace monitor.resources resource stat;
    stat

(* When the sketch evicts a key, its side-table stat and labelled gauge go
   with it — the hot_* families never exceed [hot_k] series. *)
let charge_resource monitor resource ~blocked =
  (match Sketch.observe ~weight:blocked monitor.resource_sketch resource with
   | Some victim ->
     Hashtbl.remove monitor.resources victim;
     Registry.remove_gauge monitor.registry (hot_resource_gauge victim)
   | None -> ());
  (match Sketch.find monitor.resource_sketch resource with
   | Some (estimate, _error) ->
     (resource_stat monitor resource).r_blocked <- estimate;
     Registry.set_gauge monitor.registry (hot_resource_gauge resource) estimate
   | None -> ())

let blocker_label = function
  | None -> "queue"
  | Some txn -> Printf.sprintf "T%d" txn

(* Causal charge: the wait's blocked time is split equally across the
   holders that were blocking at enqueue time (recorded on the
   [Lock_waited] event); FIFO-rule waits with no incompatible holder are
   charged to the pseudo-blocker ["queue"]. *)
let charge_blockers monitor ~holders ~blocked =
  let labels =
    match holders with
    | [] -> [ blocker_label None ]
    | holders ->
      List.map
        (fun { Event.h_txn; _ } -> blocker_label (Some h_txn))
        holders
      |> List.sort_uniq String.compare
  in
  let share = blocked /. float_of_int (List.length labels) in
  List.iter
    (fun label ->
      (match Sketch.observe ~weight:share monitor.blocker_sketch label with
       | Some victim ->
         Registry.remove_gauge monitor.registry (hot_blocker_gauge victim)
       | None -> ());
      match Sketch.find monitor.blocker_sketch label with
      | Some (estimate, _error) ->
        Registry.set_gauge monitor.registry (hot_blocker_gauge label) estimate
      | None -> ())
    labels

(* Every closed wait is charged, aborted ones too (their elapsed blocked
   time was real contention and hurts p99). Times are read on the monitor's
   clock, which never runs back: a run replayed after a later-ending one
   starts at the clock's [floor]. *)
let charge_wait monitor = function
  | Spans.Transaction _ -> ()
  | Spans.Wait { s_resource = resource; s_lu = lu; s_holders = holders;
                 s_start; s_finish; _ } ->
    let clock time = Float.max monitor.floor time in
    let blocked = Float.max 0.0 (clock s_finish -. clock s_start) in
    let stat = resource_stat monitor resource in
    stat.r_waits <- stat.r_waits + 1;
    (match lu with Some _ -> stat.r_lu <- lu | None -> ());
    charge_resource monitor resource ~blocked;
    charge_blockers monitor ~holders ~blocked;
    observe_window monitor window_wait blocked;
    (match lu with
     | None -> ()
     | Some { Event.lu_kind; _ } ->
       observe_window monitor (labelled window_wait lu_kind) blocked)

let create ?registry ?(span = 200.0) ?(hot_k = 32) () =
  if hot_k <= 0 then invalid_arg "Monitor.create: hot_k must be positive";
  let registry =
    match registry with Some registry -> registry | None -> Registry.create ()
  in
  (* the collector's fold closes waits into [charge_wait], which needs the
     monitor built around that collector *)
  let charge = ref ignore in
  let collector =
    Collector.create ~registry ~on_close:(fun span -> !charge span) ()
  in
  let monitor =
    { registry; collector; span; hot_k; mutex = Mutex.create ();
      live_windows = [];
      resource_sketch = Sketch.create ~k:hot_k;
      blocker_sketch = Sketch.create ~k:hot_k;
      resources = Hashtbl.create 256;
      breaches = []; label = None; started = 0.0; now = 0.0; floor = 0.0;
      seen = false }
  in
  charge := charge_wait monitor;
  (* pre-declare the unlabelled instruments so exports carry stable keys *)
  List.iter
    (fun name ->
      let window = Registry.window ~span monitor.registry name in
      monitor.live_windows <- window :: monitor.live_windows)
    [ window_wait; window_grants; window_commits; window_aborts;
      window_deadlocks ];
  List.iter
    (fun name -> ignore (Registry.gauge monitor.registry name : Gauge.t))
    [ gauge_active; gauge_entries; gauge_depth ];
  monitor

let reset monitor =
  Registry.reset monitor.registry;
  Spans.reset (Collector.spans monitor.collector);
  Hashtbl.reset monitor.resources;
  Sketch.reset monitor.resource_sketch;
  Sketch.reset monitor.blocker_sketch;
  (* labelled hot_* gauges are registry keys; Registry.reset only zeroes
     them, so drop the stale series outright *)
  List.iter
    (fun (name, _gauge) ->
      if
        String.length name >= 4
        && String.sub name 0 4 = "hot_"
      then Registry.remove_gauge monitor.registry name)
    (Registry.gauges monitor.registry);
  monitor.breaches <- [];
  monitor.started <- monitor.now;
  monitor.floor <- monitor.now;
  monitor.seen <- false

let begin_run monitor ~label =
  locked monitor (fun () ->
      reset monitor;
      monitor.label <- Some label)

let count_abort monitor reason =
  Registry.incr monitor.registry ("aborts." ^ reason);
  mark_window monitor window_aborts

let handle_kind monitor kind =
  (match Spans.abort_cause kind with
   | Some cause -> count_abort monitor cause
   | None -> ());
  match kind with
  | Event.Txn_commit _ -> mark_window monitor window_commits
  | Event.Lock_granted { lu; _ } ->
    mark_window monitor window_grants;
    mark_lu monitor window_grants lu
  | Event.Deadlock_detected _ ->
    mark_window monitor window_deadlocks
  | Event.Slo_breach { rule; _ } ->
    let kept =
      monitor.breaches
      |> List.filteri (fun index _ -> index < breach_memory - 1)
    in
    monitor.breaches <- (monitor.now, rule) :: kept
  | Event.Run_meta { label } ->
    reset monitor;
    monitor.label <- Some label
  | Event.Admission { decision; _ } ->
    Registry.incr monitor.registry ("admission." ^ decision)
  | Event.Admission_limit { limit; inflight; queued; shed } ->
    set_gauge monitor gauge_admission limit;
    set_gauge monitor gauge_inflight inflight;
    set_gauge monitor gauge_queued queued;
    set_gauge monitor gauge_shed shed
  | Event.Breaker { to_state; _ } ->
    Registry.incr monitor.registry ("breaker." ^ to_state);
    Registry.set_gauge monitor.registry gauge_breaker (breaker_level to_state)
  | Event.Retry_denied _ ->
    Registry.incr monitor.registry "retry.denied";
    Registry.set_gauge monitor.registry gauge_retry_denied
      (float_of_int (Registry.counter monitor.registry "retry.denied"))
  | Event.Txn_begin _ | Event.Txn_abort _ | Event.Victim_aborted _
  | Event.Timeout_abort _ | Event.Contention_abort _ | Event.Lock_waited _
  | Event.Lock_released _ | Event.Lock_requested _ | Event.Conversion _ | Event.Escalation _
  | Event.Deescalation _ | Event.Query_executed _ | Event.Sim_step _
  | Event.Waits_for _ ->
    ()

let handle monitor event =
  locked monitor (fun () ->
      let { Event.time; _ } = event in
      if not monitor.seen then begin
        monitor.seen <- true;
        monitor.started <- time
      end;
      if time > monitor.now then monitor.now <- time;
      List.iter
        (fun window -> Window.advance window ~now:monitor.now)
        monitor.live_windows;
      Collector.handle monitor.collector event;
      handle_kind monitor event.Event.kind;
      sync_gauges monitor)

(* ------------------------------------------------------------ snapshots *)

let elapsed monitor =
  if monitor.seen then Float.max 0.0 (monitor.now -. monitor.started) else 0.0

let commits monitor = Registry.counter monitor.registry "events.txn_commit"

let throughput monitor =
  let elapsed = elapsed monitor in
  if elapsed > 0.0 then float_of_int (commits monitor) /. elapsed else 0.0

let aborts monitor =
  Registry.counters monitor.registry
  |> List.filter_map (fun (name, value) ->
         match String.length name > 7 && String.sub name 0 7 = "aborts." with
         | true -> Some (String.sub name 7 (String.length name - 7), value)
         | false -> None)

let hot_resources ?(top = 10) monitor =
  Hashtbl.fold
    (fun resource stat accu -> (resource, stat) :: accu)
    monitor.resources []
  |> List.sort (fun (resource_a, a) (resource_b, b) ->
         match Float.compare b.r_blocked a.r_blocked with
         | 0 -> String.compare resource_a resource_b
         | order -> order)
  |> List.filteri (fun index _ -> index < top)

let hot_blockers ?(top = 10) monitor =
  Sketch.top ~n:top monitor.blocker_sketch
  |> List.map (fun (label, estimate, _error) -> (label, estimate))

let hot_k monitor = monitor.hot_k

let breaches monitor = List.rev monitor.breaches

let sync_sink monitor sink =
  Registry.set_gauge monitor.registry "obs_events_emitted"
    (float_of_int (Sink.emit_count sink));
  Registry.set_gauge monitor.registry "obs_events_dropped"
    (float_of_int (Sink.drop_count sink));
  Registry.set_gauge monitor.registry "obs_bytes_written"
    (float_of_int (Sink.bytes_written sink))
