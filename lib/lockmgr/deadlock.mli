(** Deadlock detection on the waits-for graph.

    Locking techniques detect conflicts "usually when the corresponding data
    are accessed" (§1); blocked transactions can then form waits-for cycles,
    which the transaction manager breaks by aborting a victim. *)

val find_cycle :
  edges:(Lock_table.txn_id * Lock_table.txn_id) list ->
  Lock_table.txn_id list option
(** Some cycle [t1; t2; ...; tn] with [t1] waiting for [t2], ..., [tn] waiting
    for [t1]; [None] when the graph is acyclic. Deterministic: the cycle
    reachable from the smallest transaction id is returned. *)

val cycle_through :
  Lock_table.t -> txn:Lock_table.txn_id -> Lock_table.txn_id list option
(** The cycle to report after [txn] starts waiting, or [None]. The rooted
    {!Lock_table.on_cycle} search decides; only when it finds [txn] on a
    cycle does {!find_cycle} rebuild the global graph to pick the cycle.

    Precondition (that of {!Lock_table.on_cycle}): the waits-for graph was
    acyclic before [txn]'s wait, which holds when every wait is checked as
    it starts. *)

val choose_victim :
  ?priority:(Lock_table.txn_id -> int) -> Lock_table.txn_id list ->
  Lock_table.txn_id
(** The cycle member with the smallest priority (ties: largest id). The
    default priority is [-id], so the youngest (largest-id) transaction dies —
    it has done the least work. Raises [Invalid_argument] on an empty
    cycle. *)
