(** The one span fold under every analyzer: pairs each lock wait and each
    transaction of an event stream exactly once.

    - A wait opens on the first [Lock_waited] for a (txn, resource) pair.
      A repeat [Lock_waited] keeps it open and cuts a segment with the
      newly reported blockers.
    - It closes as [Granted] on the pair's [Lock_granted]; as
      [Aborted cause] when the waiter gets [Victim_aborted] (["deadlock"]),
      [Timeout_abort] (["timeout"]), [Contention_abort] (["contention"]) or
      [Txn_abort] (its reason); as [Unfinished] at the last seen time on
      {!finish}.
    - A [Lock_released] by a live blocker cuts a segment; with no blocker
      left the segment goes to [Queue].
    - A transaction opens on its first [Txn_begin] and closes on its first
      [Txn_commit] or [Txn_abort].

    {!Profile}, {!Blame}, {!Flame}, {!Diff}, {!Collector}, {!Monitor} and
    {!Trace} all read these spans. [Run_meta] run splitting lives here
    too. *)

type outcome = Granted | Aborted of string | Unfinished

type agent =
  | Txn of int  (** a blocking transaction *)
  | Queue
      (** the FIFO-fairness rule itself: nobody incompatible holds the
          resource, the request just queues behind earlier waiters *)

type blocker = {
  b_agent : agent;
  b_mode : string option;  (** [None] when the trace never revealed it *)
}

type segment = { g_length : float; g_blockers : blocker list }
(** A positive stretch of a wait with one (non-empty) blocker set. *)

type wait = {
  s_txn : int;
  s_resource : string;
  s_mode : string;  (** the mode the waiter asked for *)
  s_lu : Event.lu option;
      (** the wait's own tag, else the latest tag seen on the resource *)
  s_blockers : int list;  (** as reported when the wait opened *)
  s_holders : Event.holder list;  (** as reported when the wait opened *)
  s_holder_modes : string list;
      (** distinct modes held by the blockers at wait-open, rebuilt from
          grants and conversions for traces without [holders]; [[]] means
          the FIFO queue rule alone *)
  s_start : float;
  s_finish : float;
  s_outcome : outcome;
  s_segments : segment list;  (** time order; lengths sum to the duration *)
}

val duration : wait -> float

type transaction = {
  t_txn : int;
  t_begin : float option;  (** [None]: the stream never showed it begin *)
  t_finish : float;
  t_outcome : string option;
      (** ["commit"] or the abort reason; [None]: running at {!finish} *)
}

type span = Wait of wait | Transaction of transaction

type t

val create : ?on_close:(span -> unit) -> unit -> t
(** Spans go to [on_close] as they close; without it they are kept for
    {!finish}. *)

val handle : t -> Event.t -> unit
(** Sink-handler form; ignores [Run_meta]. *)

val finish : t -> span list
(** Closes what is still open at the last seen time: waits as
    [Unfinished], then running transactions. Returns the kept spans in
    close order ([[]] with [on_close]). *)

val reset : t -> unit
(** Drops every open span without closing it. *)

val open_waits : t -> int
val running : t -> int
val held : t -> int
(** Locks currently granted, one per (txn, resource). *)

val of_events : Event.t list -> span list

val abort_cause : Event.kind -> string option
(** The abort taxonomy: deadlock, timeout and contention victims by their
    own events, every other abort (crash, gave_up, ...) by its [Txn_abort]
    reason; the victims' [Txn_abort] echoes give [None]. *)

(** {1 Run splitting}

    Each [Run_meta] delimiter starts a run and is not part of it. Events
    before the first delimiter form an unlabelled run; a delimiter followed
    by no events still makes an (empty) run. *)

type 'run splitter

val splitter :
  start:(unit -> 'run) ->
  push:('run -> Event.t -> unit) ->
  flush:(string option -> 'run -> unit) ->
  'run splitter
(** Streaming form: [start] opens a run when its first event arrives (or at
    flush time for an empty run), [push] feeds it, [flush label run] closes
    it. *)

val split : 'run splitter -> Event.t -> unit
val end_split : 'run splitter -> unit
(** Flushes the last run. *)

val runs : Event.t list -> (string option * Event.t list) list
