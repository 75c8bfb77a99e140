(** Trace-based serializability certifier.

    Reconstructs the schedule from a JSONL lock-event trace (the
    [Lock_granted]/[Lock_released] stream is the access record) and
    certifies, per [Run_meta]-delimited run:

    - {b conflict-serializability} — a serialization graph over the
      committed transactions, one edge per pair of mode-incompatible
      access episodes on the same resource ordered by grant; the run is
      serializable iff the graph is acyclic, and a minimal counterexample
      cycle is reported with the exact accesses behind each edge;
    - {b 2PL membership} — no transaction acquires a new privilege after
      its first {e uncovered} release (a release is covered, and legal,
      when a strict ancestor is still held in a mode at least as strong —
      the escalation / rule-4' sharing pattern);
    - {b hierarchy compliance (rules 1–4')} — every grant on an inner
      unit is covered at grant time by a compatible intention (or
      supremum) mode on its path parent, and every [Escalation] event's
      declared mode is audited against the supremum matrix over the
      child locks it absorbed. Concurrently-held incompatible grants
      (a broken lock manager) are flagged as they happen.

    The checker works over mode {e strings}, so this module stays below
    [Lockmgr] in the dependency order; the mode algebra is injected via
    {!modes} and [Lockmgr.Lock_mode.certify_modes] provides the
    authoritative instance (compatibility and supremum matrices).

    Aborted attempts are excluded: the simulator restarts a victim under
    the same transaction id without a fresh [Txn_begin], so certification
    units are per-transaction {e attempts} delimited by
    [Victim_aborted]/[Timeout_abort]/[Contention_abort]/[Txn_abort]/
    [Txn_commit], and only the committed attempt's accesses enter the
    serialization graph. *)

type modes = {
  m_known : string list;  (** every mode string the algebra understands *)
  m_compatible : string -> string -> bool;
  m_sup : string -> string -> string;  (** least upper bound *)
  m_intention_for : string -> string;
      (** the intention a parent must carry before a child grant *)
  m_is_intention : string -> bool;
}

val default_modes : modes
(** The classical NL/IS/IX/S/SIX/X algebra, duplicated at string level so
    the certifier is usable without [Lockmgr]. [Lock_mode.certify_modes]
    is the same algebra exported by the lock manager itself (and the test
    suite asserts they agree pointwise). Unknown mode strings behave like
    X — maximally conflicting, so fabricated traces fail loudly. *)

(** One access episode: a transaction's hold on one resource, from first
    grant to release (or end of run), at the supremum of the modes
    granted over the episode. *)
type access = {
  a_txn : int;
  a_resource : string;
  mutable a_mode : string;
  a_granted_seq : int;  (** position in the run's event stream, from 1 *)
  a_granted_time : float;
  mutable a_released_seq : int option;  (** [None]: held at end of run *)
  mutable a_released_time : float;
}

(** A serialization-graph edge [e_from -> e_to], with how many
    conflicting episode pairs induced it and the earliest as witness. *)
type edge = {
  e_from : int;
  e_to : int;
  e_count : int;
  e_resource : string;  (** witness conflict: the resource ... *)
  e_first : access;  (** ... the earlier episode ... *)
  e_second : access;  (** ... and the later, incompatible one *)
}

type violation =
  | Unserializable of { cycle : int list; edges : edge list }
      (** a minimal conflict cycle; [edges] follows [cycle] order and
          wraps back to the head *)
  | Phase_violation of {
      txn : int;
      released : string;
      released_seq : int;
      acquire : access;
    }  (** acquired [acquire] after the first uncovered release *)
  | Concurrent_conflict of {
      resource : string;
      txn : int;
      mode : string;
      holder : int;
      holder_mode : string;
      seq : int;
      time : float;
    }  (** two incompatible grants held at once: lock-manager defect *)
  | Uncovered_grant of {
      txn : int;
      resource : string;
      mode : string;
      parent : string;
      parent_mode : string option;  (** [None]: parent not held at all *)
      seq : int;
      time : float;
    }  (** rules 1–4': the path parent lacked the required intention *)
  | Escalation_violation of {
      txn : int;
      node : string;
      mode : string;
      detail : string;
      seq : int;
      time : float;
    }

type certificate = {
  label : string option;
  events : int;
  committed : int;  (** transactions whose attempt committed *)
  aborted_attempts : int;
  graph_txns : int list;  (** committed transactions, ascending *)
  graph_edges : edge list;  (** the full serialization graph *)
  violations : violation list;  (** event order; cycle last *)
}

val certified : certificate -> bool
(** No violations: the run is conflict-serializable, two-phase and
    hierarchy-compliant. *)

type t
(** An online accumulator (attach {!handle} to a sink, then {!finish}). *)

val create : ?modes:modes -> unit -> t
val handle : t -> Event.t -> unit

val finish : ?label:string -> t -> certificate
(** Closes still-open episodes at the last seen timestamp, builds the
    serialization graph and assembles the certificate. *)

val of_events : ?modes:modes -> ?label:string -> Event.t list -> certificate

val of_trace : ?modes:modes -> Event.t list -> certificate list
(** One certificate per {!Spans.runs} run. *)

val pp_violation : Format.formatter -> violation -> unit
val to_json : certificate -> Json.t

val pp : Format.formatter -> certificate -> unit
(** Text rendering; expects a vertical box (see {!print}). *)

val print : out_channel -> certificate -> unit
