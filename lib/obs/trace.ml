(* Chrome trace_event exporter (the JSON format chrome://tracing and
   Perfetto load).  Each event group becomes one "process"; transactions map
   to threads, so lock-wait and transaction spans of concurrent transactions
   stack as parallel timelines.

   Spans come from the [Spans] fold over the flat event stream:
     wait span          "wait <resource>"   (cat "lock")
     transaction span   "T<n>"              (cat "txn")
   Waits that did not end in a grant, and transactions still running when
   the capture ended, are marked unfinished. *)

let default_ts_scale = 1000.0
(* Trace timestamps are microseconds.  Simulator ticks export as
   milliseconds (x1000) so a 100-tick access renders at a readable zoom. *)

let complete ~pid ~tid ~name ~cat ~ts ~dur args =
  Json.Obj
    [ ("name", Json.String name); ("cat", Json.String cat);
      ("ph", Json.String "X"); ("ts", Json.Float ts); ("dur", Json.Float dur);
      ("pid", Json.Int pid); ("tid", Json.Int tid); ("args", Json.Obj args) ]

let instant ~pid ~tid ~name ~cat ~ts args =
  Json.Obj
    [ ("name", Json.String name); ("cat", Json.String cat);
      ("ph", Json.String "i"); ("ts", Json.Float ts); ("s", Json.String "t");
      ("pid", Json.Int pid); ("tid", Json.Int tid); ("args", Json.Obj args) ]

let process_name ~pid name =
  Json.Obj
    [ ("name", Json.String "process_name"); ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String name) ]) ]

let ints items = Json.List (List.map (fun i -> Json.Int i) items)

let group_events ~pid ~scale events =
  let out = ref [] in
  let push json = out := json :: !out in
  let unfinished finished =
    if finished then [] else [ ("unfinished", Json.Bool true) ]
  in
  let slice ~tid ~name ~cat ~start ~finish args =
    push
      (complete ~pid ~tid ~name ~cat ~ts:(start *. scale)
         ~dur:((finish -. start) *. scale)
         args)
  in
  let spans =
    Spans.create
      ~on_close:(function
        | Spans.Wait wait ->
          slice ~tid:wait.s_txn ~name:("wait " ^ wait.s_resource) ~cat:"lock"
            ~start:wait.s_start ~finish:wait.s_finish
            ([ ("mode", Json.String wait.s_mode);
               ("blockers", ints wait.s_blockers) ]
            @ unfinished (wait.s_outcome = Spans.Granted))
        | Spans.Transaction { t_begin = None; _ } -> ()
        | Spans.Transaction { t_txn; t_begin = Some start; t_finish; t_outcome }
          ->
          slice ~tid:t_txn ~name:(Printf.sprintf "T%d" t_txn) ~cat:"txn"
            ~start ~finish:t_finish
            (( "outcome",
               Json.String
                 (match t_outcome with
                  | Some "commit" -> "committed"
                  | Some reason -> reason
                  | None -> "running") )
            :: unfinished (t_outcome <> None)))
      ()
  in
  List.iter
    (fun ({ Event.time; kind } as event) ->
      Spans.handle spans event;
      let mark ~tid name cat args =
        push (instant ~pid ~tid ~name ~cat ~ts:(time *. scale) args)
      in
      match kind with
      | Event.Victim_aborted { txn; restarts } ->
        mark ~tid:txn "victim aborted" "deadlock"
          [ ("restarts", Json.Int restarts) ]
      | Event.Timeout_abort { txn; resource; waited; _ } ->
        mark ~tid:txn "timeout abort" "deadlock"
          [ ("resource", Json.String resource); ("waited", Json.Int waited) ]
      | Event.Deadlock_detected { cycle } ->
        let tid = match cycle with txn :: _ -> txn | [] -> 0 in
        mark ~tid "deadlock" "deadlock" [ ("cycle", ints cycle) ]
      | Event.Escalation { txn; node; mode; released_children } ->
        mark ~tid:txn ("escalate " ^ node) "escalation"
          [ ("mode", Json.String mode);
            ("released_children", Json.Int released_children) ]
      | Event.Deescalation { txn; node; mode } ->
        mark ~tid:txn ("de-escalate " ^ node) "escalation"
          [ ("mode", Json.String mode) ]
      | Event.Query_executed { txn; query; rows; locks_requested } ->
        mark ~tid:txn "query" "query"
          [ ("query", Json.String query); ("rows", Json.Int rows);
            ("locks_requested", Json.Int locks_requested) ]
      | Event.Sim_step { txn; step } ->
        mark ~tid:txn (Printf.sprintf "step %d" step) "sim" []
      | Event.Waits_for { edges } ->
        mark ~tid:0 "waits-for" "deadlock"
          [ ( "edges",
              Json.List
                (List.map
                   (fun (waiter, blocker) -> ints [ waiter; blocker ])
                   edges) ) ]
      | Event.Slo_breach { rule; value; threshold } ->
        mark ~tid:0 "SLO breach" "slo"
          [ ("rule", Json.String rule); ("value", Json.Float value);
            ("threshold", Json.Float threshold) ]
      | Event.Admission { txn; priority; decision } ->
        mark ~tid:txn ("admission " ^ decision) "overload"
          [ ("priority", Json.String priority) ]
      | Event.Admission_limit { limit; inflight; queued; shed } ->
        mark ~tid:0 "admission limit" "overload"
          [ ("limit", Json.Int limit); ("inflight", Json.Int inflight);
            ("queued", Json.Int queued); ("shed", Json.Int shed) ]
      | Event.Breaker { from_state; to_state } ->
        mark ~tid:0
          (Printf.sprintf "breaker %s->%s" from_state to_state)
          "overload" []
      | Event.Retry_denied { txn; restarts } ->
        mark ~tid:txn "retry denied" "overload"
          [ ("restarts", Json.Int restarts) ]
      | Event.Contention_abort { txn; policy; depth } ->
        mark ~tid:txn "contention abort" "overload"
          [ ("policy", Json.String policy); ("depth", Json.Int depth) ]
      | Event.Txn_begin _ | Event.Txn_commit _ | Event.Txn_abort _
      | Event.Lock_waited _ | Event.Lock_granted _ | Event.Lock_requested _
      | Event.Lock_released _ | Event.Conversion _ | Event.Run_meta _ ->
        ())
    events;
  (* capture ended with spans still open *)
  ignore (Spans.finish spans : Spans.span list);
  List.rev !out

let ts_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "ts" fields with Some (Json.Float ts) -> ts | _ -> -1.0)
  | _ -> -1.0

let to_json ?(ts_scale = default_ts_scale) groups =
  let trace_events =
    List.concat
      (List.mapi
         (fun index (name, events) ->
           let pid = index + 1 in
           process_name ~pid name :: group_events ~pid ~scale:ts_scale events)
         groups)
  in
  let sorted =
    List.stable_sort (fun a b -> Float.compare (ts_of a) (ts_of b)) trace_events
  in
  Json.Obj
    [ ("traceEvents", Json.List sorted);
      ("displayTimeUnit", Json.String "ms") ]

let write ?ts_scale channel groups =
  Json.output ~indent:1 channel (to_json ?ts_scale groups);
  output_char channel '\n'
