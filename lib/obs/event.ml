(* Lock modes travel as strings so this library stays below [Lockmgr] in the
   dependency order (every layer, including the lock manager itself, emits
   into it). *)

type lu = { lu_kind : string; lu_depth : int }
type holder = { h_txn : int; h_mode : string; h_lu : lu option }

type kind =
  | Lock_requested of {
      txn : int;
      resource : string;
      mode : string;
      lu : lu option;
    }
  | Lock_granted of {
      txn : int;
      resource : string;
      mode : string;
      immediate : bool;  (* false: granted from the wait queue *)
      lu : lu option;
      holders : holder list;
          (* queue-served grants: the granted group that blocked the request
             while it was queued; [] on immediate grants *)
    }
  | Lock_waited of {
      txn : int;
      resource : string;
      mode : string;
      blockers : int list;
      lu : lu option;
      holders : holder list;
          (* the incompatible granted group at enqueue time, with modes;
             [] when blocked by the FIFO rule alone *)
    }
  | Lock_released of { txn : int; resource : string; lu : lu option }
  | Conversion of {
      txn : int;
      resource : string;
      from_mode : string;
      to_mode : string;
      lu : lu option;
    }
  | Escalation of {
      txn : int;
      node : string;
      mode : string;
      released_children : int;
    }
  | Deescalation of { txn : int; node : string; mode : string }
  | Deadlock_detected of { cycle : int list }
  | Victim_aborted of { txn : int; restarts : int }
  | Timeout_abort of {
      txn : int;
      resource : string;
      waited : int;
      lu : lu option;
    }
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Query_executed of {
      txn : int;
      query : string;
      rows : int;
      locks_requested : int;
    }
  | Sim_step of { txn : int; step : int }
  | Waits_for of { edges : (int * int) list }
  | Run_meta of { label : string }
  | Slo_breach of { rule : string; value : float; threshold : float }
  | Admission of { txn : int; priority : string; decision : string }
  | Admission_limit of {
      limit : int;
      inflight : int;
      queued : int;
      shed : int;
    }
  | Breaker of { from_state : string; to_state : string }
  | Retry_denied of { txn : int; restarts : int }
  | Contention_abort of { txn : int; policy : string; depth : int }

type t = { time : float; kind : kind }

let name = function
  | Lock_requested _ -> "lock_requested"
  | Lock_granted _ -> "lock_granted"
  | Lock_waited _ -> "lock_waited"
  | Lock_released _ -> "lock_released"
  | Conversion _ -> "conversion"
  | Escalation _ -> "escalation"
  | Deescalation _ -> "deescalation"
  | Deadlock_detected _ -> "deadlock_detected"
  | Victim_aborted _ -> "victim_aborted"
  | Timeout_abort _ -> "timeout_abort"
  | Txn_begin _ -> "txn_begin"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Query_executed _ -> "query_executed"
  | Sim_step _ -> "sim_step"
  | Waits_for _ -> "waits_for"
  | Run_meta _ -> "run_meta"
  | Slo_breach _ -> "slo_breach"
  | Admission _ -> "admission"
  | Admission_limit _ -> "admission_limit"
  | Breaker _ -> "breaker"
  | Retry_denied _ -> "retry_denied"
  | Contention_abort _ -> "contention_abort"

let txn = function
  | Lock_requested { txn; _ } | Lock_granted { txn; _ }
  | Lock_waited { txn; _ } | Lock_released { txn; _ }
  | Conversion { txn; _ } | Escalation { txn; _ } | Deescalation { txn; _ }
  | Victim_aborted { txn; _ } | Timeout_abort { txn; _ } | Txn_begin { txn }
  | Txn_commit { txn } | Txn_abort { txn; _ } | Query_executed { txn; _ }
  | Sim_step { txn; _ } | Admission { txn; _ } | Retry_denied { txn; _ }
  | Contention_abort { txn; _ } ->
    Some txn
  | Deadlock_detected _ | Waits_for _ | Run_meta _ | Slo_breach _
  | Admission_limit _ | Breaker _ ->
    None

(* LU annotations serialize flat ([lu], [depth]) so jq filters stay one
   level deep; absent tags produce no fields at all, keeping untagged
   streams byte-identical to pre-profiler captures. *)
let lu_fields = function
  | None -> []
  | Some { lu_kind; lu_depth } ->
    [ ("lu", Json.String lu_kind); ("depth", Json.Int lu_depth) ]

(* Holders serialize as a list of small objects; an empty list writes no
   field at all, so holder-free streams stay byte-identical to pre-blame
   captures. *)
let holder_fields = function
  | [] -> []
  | holders ->
    [ ( "holders",
        Json.List
          (List.map
             (fun { h_txn; h_mode; h_lu } ->
               Json.Obj
                 ([ ("txn", Json.Int h_txn); ("mode", Json.String h_mode) ]
                 @ lu_fields h_lu))
             holders) ) ]

let kind_fields = function
  | Lock_requested { txn; resource; mode; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode) ]
    @ lu_fields lu
  | Lock_granted { txn; resource; mode; immediate; lu; holders } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode); ("immediate", Json.Bool immediate) ]
    @ lu_fields lu @ holder_fields holders
  | Lock_waited { txn; resource; mode; blockers; lu; holders } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode);
      ("blockers", Json.List (List.map (fun b -> Json.Int b) blockers)) ]
    @ lu_fields lu @ holder_fields holders
  | Lock_released { txn; resource; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource) ]
    @ lu_fields lu
  | Conversion { txn; resource; from_mode; to_mode; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("from", Json.String from_mode); ("to", Json.String to_mode) ]
    @ lu_fields lu
  | Escalation { txn; node; mode; released_children } ->
    [ ("txn", Json.Int txn); ("node", Json.String node);
      ("mode", Json.String mode);
      ("released_children", Json.Int released_children) ]
  | Deescalation { txn; node; mode } ->
    [ ("txn", Json.Int txn); ("node", Json.String node);
      ("mode", Json.String mode) ]
  | Deadlock_detected { cycle } ->
    [ ("cycle", Json.List (List.map (fun t -> Json.Int t) cycle)) ]
  | Victim_aborted { txn; restarts } ->
    [ ("txn", Json.Int txn); ("restarts", Json.Int restarts) ]
  | Timeout_abort { txn; resource; waited; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("waited", Json.Int waited) ]
    @ lu_fields lu
  | Txn_begin { txn } | Txn_commit { txn } -> [ ("txn", Json.Int txn) ]
  | Txn_abort { txn; reason } ->
    [ ("txn", Json.Int txn); ("reason", Json.String reason) ]
  | Query_executed { txn; query; rows; locks_requested } ->
    [ ("txn", Json.Int txn); ("query", Json.String query);
      ("rows", Json.Int rows); ("locks_requested", Json.Int locks_requested) ]
  | Sim_step { txn; step } ->
    [ ("txn", Json.Int txn); ("step", Json.Int step) ]
  | Waits_for { edges } ->
    [ ( "edges",
        Json.List
          (List.map
             (fun (waiter, blocker) ->
               Json.List [ Json.Int waiter; Json.Int blocker ])
             edges) ) ]
  | Run_meta { label } -> [ ("label", Json.String label) ]
  | Slo_breach { rule; value; threshold } ->
    [ ("rule", Json.String rule); ("value", Json.Float value);
      ("threshold", Json.Float threshold) ]
  | Admission { txn; priority; decision } ->
    [ ("txn", Json.Int txn); ("priority", Json.String priority);
      ("decision", Json.String decision) ]
  | Admission_limit { limit; inflight; queued; shed } ->
    [ ("limit", Json.Int limit); ("inflight", Json.Int inflight);
      ("queued", Json.Int queued); ("shed", Json.Int shed) ]
  | Breaker { from_state; to_state } ->
    [ ("from", Json.String from_state); ("to", Json.String to_state) ]
  | Retry_denied { txn; restarts } ->
    [ ("txn", Json.Int txn); ("restarts", Json.Int restarts) ]
  | Contention_abort { txn; policy; depth } ->
    [ ("txn", Json.Int txn); ("policy", Json.String policy);
      ("depth", Json.Int depth) ]

let to_json event =
  Json.Obj
    (("event", Json.String (name event.kind))
     :: ("time", Json.Float event.time)
     :: kind_fields event.kind)

(* ------------------------------------------------------------- decoding *)

(* The decoder accepts exactly what [to_json] produces (the JSONL trace
   format), so captures round-trip: offline analysis reuses the same typed
   fold as online sinks. *)

let ( let* ) = Result.bind

let field fields key =
  match List.assoc_opt key fields with
  | Some json -> Ok json
  | None -> Error (Printf.sprintf "missing field %S" key)

let int_field fields key =
  let* json = field fields key in
  match json with
  | Json.Int n -> Ok n
  | Json.Float f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S is not an integer" key)

let string_field fields key =
  let* json = field fields key in
  match json with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" key)

let bool_field fields key =
  let* json = field fields key in
  match json with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S is not a boolean" key)

let float_field fields key =
  let* json = field fields key in
  match json with
  | Json.Float f -> Ok f
  | Json.Int n -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "field %S is not a number" key)

let int_list_field fields key =
  let* json = field fields key in
  match json with
  | Json.List items ->
    List.fold_left
      (fun accu item ->
        let* accu = accu in
        match item with
        | Json.Int n -> Ok (n :: accu)
        | _ -> Error (Printf.sprintf "field %S holds a non-integer" key))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error (Printf.sprintf "field %S is not a list" key)

let lu_field fields =
  match List.assoc_opt "lu" fields with
  | None -> Ok None
  | Some (Json.String lu_kind) ->
    let* lu_depth = int_field fields "depth" in
    Ok (Some { lu_kind; lu_depth })
  | Some _ -> Error "field \"lu\" is not a string"

(* Absent means []: traces captured before holders existed decode fine. *)
let holders_field fields =
  match List.assoc_opt "holders" fields with
  | None -> Ok []
  | Some (Json.List items) ->
    List.fold_left
      (fun accu item ->
        let* accu = accu in
        match item with
        | Json.Obj holder_fields ->
          let* h_txn = int_field holder_fields "txn" in
          let* h_mode = string_field holder_fields "mode" in
          let* h_lu = lu_field holder_fields in
          Ok ({ h_txn; h_mode; h_lu } :: accu)
        | _ -> Error "field \"holders\" holds a non-object")
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error "field \"holders\" is not a list"

let kind_of_fields event_name fields =
  match event_name with
  | "lock_requested" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* mode = string_field fields "mode" in
    let* lu = lu_field fields in
    Ok (Lock_requested { txn; resource; mode; lu })
  | "lock_granted" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* mode = string_field fields "mode" in
    let* immediate = bool_field fields "immediate" in
    let* lu = lu_field fields in
    let* holders = holders_field fields in
    Ok (Lock_granted { txn; resource; mode; immediate; lu; holders })
  | "lock_waited" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* mode = string_field fields "mode" in
    let* blockers = int_list_field fields "blockers" in
    let* lu = lu_field fields in
    let* holders = holders_field fields in
    Ok (Lock_waited { txn; resource; mode; blockers; lu; holders })
  | "lock_released" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* lu = lu_field fields in
    Ok (Lock_released { txn; resource; lu })
  | "conversion" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* from_mode = string_field fields "from" in
    let* to_mode = string_field fields "to" in
    let* lu = lu_field fields in
    Ok (Conversion { txn; resource; from_mode; to_mode; lu })
  | "escalation" ->
    let* txn = int_field fields "txn" in
    let* node = string_field fields "node" in
    let* mode = string_field fields "mode" in
    let* released_children = int_field fields "released_children" in
    Ok (Escalation { txn; node; mode; released_children })
  | "deescalation" ->
    let* txn = int_field fields "txn" in
    let* node = string_field fields "node" in
    let* mode = string_field fields "mode" in
    Ok (Deescalation { txn; node; mode })
  | "deadlock_detected" ->
    let* cycle = int_list_field fields "cycle" in
    Ok (Deadlock_detected { cycle })
  | "victim_aborted" ->
    let* txn = int_field fields "txn" in
    let* restarts = int_field fields "restarts" in
    Ok (Victim_aborted { txn; restarts })
  | "timeout_abort" ->
    let* txn = int_field fields "txn" in
    let* resource = string_field fields "resource" in
    let* waited = int_field fields "waited" in
    let* lu = lu_field fields in
    Ok (Timeout_abort { txn; resource; waited; lu })
  | "txn_begin" ->
    let* txn = int_field fields "txn" in
    Ok (Txn_begin { txn })
  | "txn_commit" ->
    let* txn = int_field fields "txn" in
    Ok (Txn_commit { txn })
  | "txn_abort" ->
    let* txn = int_field fields "txn" in
    let* reason = string_field fields "reason" in
    Ok (Txn_abort { txn; reason })
  | "query_executed" ->
    let* txn = int_field fields "txn" in
    let* query = string_field fields "query" in
    let* rows = int_field fields "rows" in
    let* locks_requested = int_field fields "locks_requested" in
    Ok (Query_executed { txn; query; rows; locks_requested })
  | "sim_step" ->
    let* txn = int_field fields "txn" in
    let* step = int_field fields "step" in
    Ok (Sim_step { txn; step })
  | "waits_for" ->
    let* json = field fields "edges" in
    (match json with
     | Json.List items ->
       let* edges =
         List.fold_left
           (fun accu item ->
             let* accu = accu in
             match item with
             | Json.List [ Json.Int waiter; Json.Int blocker ] ->
               Ok ((waiter, blocker) :: accu)
             | _ -> Error "field \"edges\" holds a malformed pair")
           (Ok []) items
       in
       Ok (Waits_for { edges = List.rev edges })
     | _ -> Error "field \"edges\" is not a list")
  | "run_meta" ->
    let* label = string_field fields "label" in
    Ok (Run_meta { label })
  | "slo_breach" ->
    let* rule = string_field fields "rule" in
    let* value = float_field fields "value" in
    let* threshold = float_field fields "threshold" in
    Ok (Slo_breach { rule; value; threshold })
  | "admission" ->
    let* txn = int_field fields "txn" in
    let* priority = string_field fields "priority" in
    let* decision = string_field fields "decision" in
    Ok (Admission { txn; priority; decision })
  | "admission_limit" ->
    let* limit = int_field fields "limit" in
    let* inflight = int_field fields "inflight" in
    let* queued = int_field fields "queued" in
    let* shed = int_field fields "shed" in
    Ok (Admission_limit { limit; inflight; queued; shed })
  | "breaker" ->
    let* from_state = string_field fields "from" in
    let* to_state = string_field fields "to" in
    Ok (Breaker { from_state; to_state })
  | "retry_denied" ->
    let* txn = int_field fields "txn" in
    let* restarts = int_field fields "restarts" in
    Ok (Retry_denied { txn; restarts })
  | "contention_abort" ->
    let* txn = int_field fields "txn" in
    let* policy = string_field fields "policy" in
    let* depth = int_field fields "depth" in
    Ok (Contention_abort { txn; policy; depth })
  | other -> Error (Printf.sprintf "unknown event %S" other)

let of_json = function
  | Json.Obj fields ->
    let* event_name = string_field fields "event" in
    let* time = float_field fields "time" in
    let* kind = kind_of_fields event_name fields in
    Ok { time; kind }
  | _ -> Error "event is not a JSON object"

let pp formatter event =
  Format.fprintf formatter "%s" (Json.to_string (to_json event))
