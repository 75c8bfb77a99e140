(** The live operations monitor: a sink handler folding the event stream
    into gauges, sliding windows and per-resource contention tallies — the
    state behind [/metrics], the SLO engine and [colock top].

    It embeds a {!Collector} on the same registry, so the cumulative
    [events.*] counters and whole-run latency histograms ride along, and
    charges every wait the collector's {!Spans} fold closes; the monitor
    adds the live layer:

    - gauges [active_txns], [lock_entries], [wait_queue_depth]
    - windows [window.grants], [window.commits], [window.aborts],
      [window.deadlocks] (rates) and [window.lock_wait] (wait-time
      quantiles), each also registered per lockable-unit kind as
      [...{lu="BLU"}] / [HoLU] / [HeLU] — live contention attributed to
      the paper's granule hierarchy exactly as [Profile] attributes it
      offline
    - [aborts.<reason>] counters (the same taxonomy as [Profile])
    - per-resource blocked time for the "top contended resources" panel,
      tracked through a {!Sketch} so at most [hot_k] resources are held no
      matter how many distinct objects the stream touches; the tracked set
      is exported live as [hot_resource{resource="..."}] gauges
    - per-blocker blamed wait time ([hot_blocker{blocker="T7"}] gauges,
      ["queue"] for FIFO-rule waits), split equally across the holders
      recorded on each [Lock_waited] event — the live counterpart of
      {!Blame}'s offline attribution
    - robustness gauges: [admission_limit] / [admission_inflight] /
      [admission_queued] / [admission_shed] snapshot the AIMD limiter,
      [breaker_state] encodes the circuit breaker (0 closed, 1 half-open,
      2 open), [retry_denied] mirrors the exhausted-retry-budget counter

    A [Run_meta] event resets the registry and relabels the monitor, so one
    process comparing several techniques against one live endpoint never
    bleeds stats between runs. *)

type resource_stat = {
  mutable r_blocked : float;
  mutable r_waits : int;
  mutable r_lu : Event.lu option;
}

type t

val create : ?registry:Registry.t -> ?span:float -> ?hot_k:int -> unit -> t
(** [span] is the sliding-window length in clock units (default 200 —
    about an access-burst of simulator ticks; pass seconds-scale spans for
    wall-clock sinks). [hot_k] (default 32) bounds the hot-resource and
    hot-blocker sketches — and with them the [hot_*] gauge cardinality;
    raises [Invalid_argument] when [hot_k <= 0]. *)

val registry : t -> Registry.t
val span : t -> float

val handle : t -> Event.t -> unit
(** The sink handler: attach with [Sink.attach sink (Monitor.handle m)]. *)

val label : t -> string option
(** The current run's label (from [Run_meta] or {!begin_run}). *)

val begin_run : t -> label:string -> unit
(** Resets everything and relabels — what a [Run_meta] event does, for
    callers driving the monitor directly. *)

val now : t -> float
(** Clock value of the latest event seen. *)

val started : t -> float
(** Clock value of the first event of the current run (0 before any). *)

val elapsed : t -> float

val commits : t -> int
val throughput : t -> float
(** Commits per clock unit since the run started. *)

val aborts : t -> (string * int) list
(** Abort taxonomy, [(reason, count)] sorted by reason. *)

val hot_resources : ?top:int -> t -> (string * resource_stat) list
(** Most-blocked-on resources, descending blocked time (ties by name).
    Bounded by [hot_k]: [r_blocked] is the sketch estimate (exact while
    fewer than [hot_k] distinct resources ever blocked anyone). *)

val hot_blockers : ?top:int -> t -> (string * float) list
(** Transactions most blamed for others' wait time, [(label, blamed)]
    descending (labels ["T<id>"] or ["queue"]); sketch-bounded like
    {!hot_resources}. *)

val hot_k : t -> int

val breaches : t -> (float * string) list
(** SLO breach events seen this run, oldest first (last 32 kept). *)

val sync_sink : t -> Sink.t -> unit
(** Copies the sink's self-accounting into [obs_events_emitted] /
    [obs_events_dropped] / [obs_bytes_written] gauges — call before
    rendering a snapshot so the pipeline's own health is part of it. *)

val locked : t -> (unit -> 'a) -> 'a
(** Runs [f] under the monitor's mutex. {!handle} takes it per event; an
    HTTP accept thread must take it around snapshot rendering so it never
    reads a hashtable mid-rehash. *)
