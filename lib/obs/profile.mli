(** The contention profiler: attributes blocked time to the lock graph.

    Folds a lock-event stream into {!Spans} wait spans and aggregates them
    per lockable-unit level (BLU/HoLU/HeLU), per graph depth, per resource,
    and per waiter-mode × holder-mode conflict cell — plus an abort-cause taxonomy,
    per-transaction longest-wait-chain breakdowns, and wait-for snapshot
    statistics. Each partition of the report sums to the same total blocked
    time as the raw [Lock_waited] durations in the stream.

    Works online (attach {!handle} to a {!Sink}, then {!finish}) and offline
    ({!of_trace} on a decoded JSONL trace from {!Jsonl.load}). *)

type level_stat = {
  v_level : string;  (** ["BLU"], ["HoLU"], ["HeLU"], or ["untagged"] *)
  v_blocked : float;
  v_waits : int;
  v_resources : int;  (** distinct resources at this level *)
}

type depth_stat = { d_depth : int; d_blocked : float; d_waits : int }

type resource_stat = {
  r_resource : string;
  r_lu : Event.lu option;
  r_blocked : float;
  r_waits : int;
}

type cell = {
  c_waiter : string;
  c_holder : string;  (** ["queue"] for FIFO-rule blocking *)
  c_count : int;
  c_blocked : float;
}

type path_step = { p_resource : string; p_blocked : float }

type txn_path = {
  t_txn : int;
  t_blocked : float;  (** sum over all of the transaction's waits *)
  t_critical : float;
      (** longest chain of overlapping waits starting at one of them:
          its own wait plus the blocker's wait plus that blocker's ... *)
  t_path : path_step list;  (** the resources along that chain *)
}

type report = {
  label : string option;
  events : int;
  first_time : float;
  last_time : float;
  total_blocked : float;  (** equals the sum of every partition below *)
  wait_count : int;
  unfinished : int;
  spans : Spans.wait list;  (** close order *)
  levels : level_stat list;  (** blocked-time descending *)
  depths : depth_stat list;  (** depth ascending; tagged spans only *)
  resources : resource_stat list;  (** blocked-time descending *)
  matrix : cell list;  (** blocked-time descending *)
  aborts : (string * int) list;  (** cause tag -> count, sorted by cause *)
  txns : txn_path list;  (** critical-path descending *)
  snapshots : int;  (** [Waits_for] events seen *)
  peak_wait_edges : int;
}

type t
(** An online accumulator. *)

val create : unit -> t

val handle : t -> Event.t -> unit
(** Sink-handler form: attach with {!Sink.attach}. *)

val finish : ?label:string -> t -> report
(** Closes still-open waits as [Unfinished] at the last seen timestamp and
    assembles the report. *)

val of_events : ?label:string -> Event.t list -> report
(** One-shot fold over an in-memory event list. *)

val of_trace : Event.t list -> report list
(** Folds a decoded JSONL trace into one report per {!Spans.runs} run. *)

val to_json : report -> Json.t

val pp : ?top:int -> Format.formatter -> report -> unit
(** Text rendering; [top] (default 10) bounds the hot-resource and
    critical-path tables. Expects a vertical box (see {!print}). *)

val print : ?top:int -> out_channel -> report -> unit
