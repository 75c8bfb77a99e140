(* Property tests for the span fold every analyzer reads: on random event
   streams mixing grants, all four abort kinds, re-waits, releases by
   blockers and [Run_meta] delimiters, every opened wait closes exactly
   once, and the analyzers built on the fold agree on blocked time. *)

module Event = Obs.Event
module Spans = Obs.Spans

let txns = [ 1; 2; 3; 4 ]
let resources = [ "a"; "b"; "c" ]

let kind_gen =
  QCheck.Gen.(
    let txn = oneofl txns in
    let resource = oneofl resources in
    let mode = oneofl [ "S"; "X" ] in
    let blockers = list_size (int_bound 2) txn in
    frequency
      [ ( 6,
          map
            (fun (((txn, resource), (mode, blockers)), with_holders) ->
              let holders =
                if with_holders then
                  List.map
                    (fun h_txn -> { Event.h_txn; h_mode = "X"; h_lu = None })
                    blockers
                else []
              in
              Event.Lock_waited
                { txn; resource; mode; blockers; lu = None; holders })
            (pair (pair (pair txn resource) (pair mode blockers)) bool) );
        ( 4,
          map
            (fun ((txn, resource), mode) ->
              Event.Lock_granted
                { txn; resource; mode; immediate = false;
                  lu =
                    (if resource = "a" then
                       Some { Event.lu_kind = "HoLU"; lu_depth = 2 }
                     else None);
                  holders = [] })
            (pair (pair txn resource) mode) );
        ( 4,
          map
            (fun (txn, resource) ->
              Event.Lock_released { txn; resource; lu = None })
            (pair txn resource) );
        (1, map (fun txn -> Event.Victim_aborted { txn; restarts = 1 }) txn);
        ( 1,
          map
            (fun (txn, resource) ->
              Event.Timeout_abort { txn; resource; waited = 1; lu = None })
            (pair txn resource) );
        ( 1,
          map
            (fun txn ->
              Event.Contention_abort { txn; policy = "wdl:1"; depth = 2 })
            txn );
        ( 1,
          map
            (fun (txn, reason) -> Event.Txn_abort { txn; reason })
            (pair txn (oneofl [ "crash"; "gave_up"; "deadlock_victim" ])) );
        (2, map (fun txn -> Event.Txn_begin { txn }) txn);
        (1, map (fun txn -> Event.Txn_commit { txn }) txn);
        ( 1,
          map
            (fun label -> Event.Run_meta { label })
            (oneofl [ "left"; "right" ]) ) ])

(* Integer tick gaps, never running back. *)
let stream_gen =
  QCheck.Gen.(
    map
      (fun steps ->
        let _, events =
          List.fold_left
            (fun (time, events) (gap, kind) ->
              let time = time + gap in
              (time, { Event.time = float_of_int time; kind } :: events))
            (0, []) steps
        in
        List.rev events)
      (list_size (int_range 0 80) (pair (int_bound 5) kind_gen)))

let stream =
  QCheck.make stream_gen ~print:(fun events ->
      String.concat "\n"
        (List.map
           (fun event -> Obs.Json.to_string (Event.to_json event))
           events))

(* A reference list of the waits a stream opens, as (txn, resource,
   start): a pair opens on its first [Lock_waited] and is free again once
   it closed. *)
let opened_waits events =
  let open_pairs = Hashtbl.create 16 in
  List.fold_left
    (fun opened { Event.time; kind } ->
      match kind with
      | Event.Lock_waited { txn; resource; _ } ->
        if Hashtbl.mem open_pairs (txn, resource) then opened
        else begin
          Hashtbl.replace open_pairs (txn, resource) ();
          (txn, resource, time) :: opened
        end
      | Event.Lock_granted { txn; resource; _ } ->
        Hashtbl.remove open_pairs (txn, resource);
        opened
      | Event.Victim_aborted { txn; _ } | Event.Timeout_abort { txn; _ }
      | Event.Contention_abort { txn; _ } | Event.Txn_abort { txn; _ } ->
        List.iter
          (fun resource -> Hashtbl.remove open_pairs (txn, resource))
          resources;
        opened
      | _ -> opened)
    [] events
  |> List.sort compare

let waits_of spans =
  List.filter_map
    (function Spans.Wait wait -> Some wait | Spans.Transaction _ -> None)
    spans

let prop_each_wait_closes_once =
  QCheck.Test.make ~name:"every opened wait closes exactly once" ~count:500
    stream (fun events ->
      let waits = waits_of (Spans.of_events events) in
      List.sort compare
        (List.map
           (fun (wait : Spans.wait) ->
             (wait.s_txn, wait.s_resource, wait.s_start))
           waits)
      = opened_waits events
      && List.for_all
           (fun (wait : Spans.wait) ->
             let segments =
               List.fold_left
                 (fun total { Spans.g_length; _ } -> total +. g_length)
                 0.0 wait.s_segments
             in
             Float.abs (segments -. Spans.duration wait) < 1e-9)
           waits)

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

let prop_analyzers_agree =
  QCheck.Test.make
    ~name:"profile, blame and flame agree on blocked time per run" ~count:500
    stream (fun events ->
      let profiles = Obs.Profile.of_trace events in
      let blames = Obs.Blame.of_trace events in
      let flames = Obs.Flame.of_trace events in
      List.length profiles = List.length blames
      && List.length profiles = List.length flames
      && List.for_all2
           (fun (profile : Obs.Profile.report) (blame : Obs.Blame.report) ->
             profile.total_blocked = blame.total_blocked
             && close blame.total_blocked blame.total_blamed)
           profiles blames
      && List.for_all2
           (fun (profile : Obs.Profile.report) flame ->
             profile.total_blocked = Obs.Flame.total flame)
           profiles flames)

let prop_collector_counts_grants =
  QCheck.Test.make ~name:"lock_wait histogram counts the granted waits"
    ~count:500 stream (fun events ->
      let collector = Obs.Collector.create () in
      List.iter (Obs.Collector.handle collector) events;
      let granted =
        List.length
          (List.filter
             (fun (wait : Spans.wait) -> wait.s_outcome = Spans.Granted)
             (waits_of (Spans.of_events events)))
      in
      match
        Obs.Registry.find_histogram (Obs.Collector.registry collector)
          "lock_wait"
      with
      | Some histogram -> Obs.Histogram.count histogram = granted
      | None -> false)

let () =
  Alcotest.run "spans"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_each_wait_closes_once; prop_analyzers_agree;
            prop_collector_counts_grants ] ) ]
