module Table = Lockmgr.Lock_table

module Int_set = Set.Make (Int)

type t = {
  protocol : Protocol.t;
  mutex : Mutex.t;
  changed : Condition.t;
  mutable poisoned : Int_set.t;  (* deadlock victims not yet cleaned up *)
}

let create protocol =
  { protocol; mutex = Mutex.create (); changed = Condition.create ();
    poisoned = Int_set.empty }

let protocol wrapper = wrapper.protocol

(* Call with the mutex held. *)
let cleanup_victim wrapper ~txn =
  wrapper.poisoned <- Int_set.remove txn wrapper.poisoned;
  let table = Protocol.table wrapper.protocol in
  let (_ : Table.grant list) = Table.cancel_wait table ~txn in
  let (_ : Table.grant list) =
    Protocol.end_of_transaction wrapper.protocol ~txn
  in
  Condition.broadcast wrapper.changed

(* Call with the mutex held.  Returns [true] when [txn] was sacrificed.

   Poisoning someone else does NOT make the cycle disappear immediately: the
   victim is parked and only cleans up after it re-acquires the mutex. So
   poison exactly once, wake everyone, and return — the caller parks on the
   condition variable, and the next wakeup re-runs detection if the cycle is
   still there (the deterministic victim choice keeps re-selecting the same,
   already-poisoned transaction, so no second victim is sacrificed).

   Detection stays global here, unlike the simulator's rooted check: a
   poisoned victim's cycle stays in the table until the victim wakes up,
   so a later requester may wait while a cycle it is not on is alive. *)
let resolve_deadlock wrapper ~txn =
  let table = Protocol.table wrapper.protocol in
  match Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) with
  | None -> false
  | Some cycle ->
    let victim = Lockmgr.Deadlock.choose_victim cycle in
    if victim = txn then true
    else begin
      wrapper.poisoned <- Int_set.add victim wrapper.poisoned;
      Condition.broadcast wrapper.changed;
      false
    end

let acquire wrapper ~txn ?duration ?follow_references node mode =
  Mutex.lock wrapper.mutex;
  let rec attempt () =
    if Int_set.mem txn wrapper.poisoned then begin
      cleanup_victim wrapper ~txn;
      `Deadlock_victim
    end
    else
      match
        Protocol.acquire wrapper.protocol ~txn ?duration ?follow_references
          node mode
      with
      | Protocol.Acquired _ -> `Granted
      | Protocol.Blocked _ ->
        if resolve_deadlock wrapper ~txn then begin
          cleanup_victim wrapper ~txn;
          `Deadlock_victim
        end
        else begin
          Condition.wait wrapper.changed wrapper.mutex;
          attempt ()
        end
  in
  let outcome = attempt () in
  Mutex.unlock wrapper.mutex;
  outcome

let end_of_transaction wrapper ~txn =
  Mutex.lock wrapper.mutex;
  let (_ : Table.grant list) =
    Protocol.end_of_transaction wrapper.protocol ~txn
  in
  wrapper.poisoned <- Int_set.remove txn wrapper.poisoned;
  Condition.broadcast wrapper.changed;
  Mutex.unlock wrapper.mutex

let run_txn wrapper ~txn ~locks action =
  let rec attempt () =
    let rec acquire_all = function
      | [] -> `Granted
      | (node, mode) :: rest -> (
        match acquire wrapper ~txn node mode with
        | `Granted -> acquire_all rest
        | `Deadlock_victim -> `Deadlock_victim)
    in
    match acquire_all locks with
    | `Granted ->
      Fun.protect
        ~finally:(fun () -> end_of_transaction wrapper ~txn)
        action
    | `Deadlock_victim ->
      (* locks already gone; brief pause and retry *)
      Domain.cpu_relax ();
      attempt ()
  in
  attempt ()
