(* The one place that decides when a wait or a transaction starts and ends
   (the rules are listed in the interface).  Open waits hang off their
   waiter and their resource, so an abort or a release touches only the
   waits it affects, and closing a wait touches no table at all. *)

type outcome = Granted | Aborted of string | Unfinished
type agent = Txn of int | Queue
type blocker = { b_agent : agent; b_mode : string option }
type segment = { g_length : float; g_blockers : blocker list }

type wait = {
  s_txn : int;
  s_resource : string;
  s_mode : string;
  s_lu : Event.lu option;
  s_blockers : int list;
  s_holders : Event.holder list;
  s_holder_modes : string list;  (* distinct, at wait-open; [] = FIFO queue *)
  s_start : float;
  s_finish : float;
  s_outcome : outcome;
  s_segments : segment list;
}

let duration wait = Float.max 0.0 (wait.s_finish -. wait.s_start)

type transaction = {
  t_txn : int;
  t_begin : float option;
  t_finish : float;
  t_outcome : string option;
}

type span = Wait of wait | Transaction of transaction

type phase = Unseen | Running of float | Ended

type open_wait = {
  o_wait : wait;  (* as opened: finish, outcome and segments still to come *)
  o_waiter : waiter;
  o_on : resource;
  mutable o_seg_start : float;
  mutable o_live : blocker list;  (* never empty: [Queue] when nobody holds *)
  mutable o_segments : segment list;  (* newest first *)
}

and waiter = {
  (* one per transaction seen *)
  mutable x_phase : phase;
  mutable x_waits : open_wait list;  (* newest first *)
}

and resource = {
  mutable r_lu : Event.lu option;  (* the latest tag seen *)
  mutable r_waits : open_wait list;
}

type t = {
  on_close : span -> unit;
  kept : span list ref;  (* newest first; only without [on_close] *)
  txns : (int, waiter) Hashtbl.t;
  resources : (string, resource) Hashtbl.t;
  held : (int * string, string) Hashtbl.t;  (* current granted modes *)
  mutable open_waits : int;
  mutable running : int;
  mutable last_time : float;
}

let create ?on_close () =
  let kept = ref [] in
  { on_close =
      (match on_close with
       | Some on_close -> on_close
       | None -> fun span -> kept := span :: !kept);
    kept; txns = Hashtbl.create 64; resources = Hashtbl.create 256;
    held = Hashtbl.create 256; open_waits = 0; running = 0;
    last_time = Float.neg_infinity }

let reset spans =
  Hashtbl.reset spans.txns;
  Hashtbl.reset spans.resources;
  Hashtbl.reset spans.held;
  spans.open_waits <- 0;
  spans.running <- 0

let open_waits spans = spans.open_waits
let running spans = spans.running
let held spans = Hashtbl.length spans.held

let waiter spans txn =
  match Hashtbl.find_opt spans.txns txn with
  | Some waiter -> waiter
  | None ->
    let waiter = { x_phase = Unseen; x_waits = [] } in
    Hashtbl.replace spans.txns txn waiter;
    waiter

(* The resource's state, with its latest tag learned from [lu]. *)
let resource spans name lu =
  let resource =
    match Hashtbl.find_opt spans.resources name with
    | Some resource -> resource
    | None ->
      let resource = { r_lu = None; r_waits = [] } in
      Hashtbl.replace spans.resources name resource;
      resource
  in
  (match lu with Some _ -> resource.r_lu <- lu | None -> ());
  resource

let find_wait waiter resource =
  List.find_opt (fun opened -> opened.o_on == resource) waiter.x_waits

(* The blockers a [Lock_waited] reports: its holders with their modes, or,
   for traces without holders, its [blockers] with modes rebuilt from the
   grants seen so far. *)
let live_of spans name blockers holders =
  match holders, blockers with
  | _ :: _, _ ->
    List.map
      (fun { Event.h_txn; h_mode; _ } ->
        { b_agent = Txn h_txn; b_mode = Some h_mode })
      holders
  | [], [] -> [ { b_agent = Queue; b_mode = None } ]
  | [], blockers ->
    List.map
      (fun blocker ->
        { b_agent = Txn blocker;
          b_mode = Hashtbl.find_opt spans.held (blocker, name) })
      blockers

let holder_modes spans name blockers holders =
  (match holders with
   | [] ->
     List.filter_map
       (fun blocker -> Hashtbl.find_opt spans.held (blocker, name))
       blockers
   | holders -> List.map (fun { Event.h_mode; _ } -> h_mode) holders)
  |> List.sort_uniq String.compare

(* Close the running segment at [now]. *)
let cut opened now =
  let now = Float.max opened.o_seg_start now in
  let length = now -. opened.o_seg_start in
  if length > 0.0 then
    opened.o_segments <-
      { g_length = length; g_blockers = opened.o_live } :: opened.o_segments;
  opened.o_seg_start <- now

let release opened now txn =
  let blocks { b_agent; _ } =
    match b_agent with Txn holder -> holder = txn | Queue -> false
  in
  if List.exists blocks opened.o_live then begin
    cut opened now;
    opened.o_live <-
      (match List.filter (fun b -> not (blocks b)) opened.o_live with
       | [] -> [ { b_agent = Queue; b_mode = None } ]
       | remaining -> remaining)
  end

let close spans opened time outcome =
  let wait = opened.o_wait in
  let others = List.filter (fun other -> other != opened) in
  opened.o_waiter.x_waits <- others opened.o_waiter.x_waits;
  opened.o_on.r_waits <- others opened.o_on.r_waits;
  spans.open_waits <- spans.open_waits - 1;
  let finish = Float.max wait.s_start time in
  cut opened finish;
  spans.on_close
    (Wait
       { wait with
         s_lu =
           (match wait.s_lu with Some _ -> wait.s_lu | None -> opened.o_on.r_lu);
         s_finish = finish; s_outcome = outcome;
         s_segments = List.rev opened.o_segments })

let abort spans txn time cause =
  Option.iter
    (fun waiter ->
      List.iter
        (fun opened -> close spans opened time (Aborted cause))
        (List.rev waiter.x_waits))
    (Hashtbl.find_opt spans.txns txn)

let end_txn spans waiter txn time outcome =
  let t_begin =
    match waiter.x_phase with
    | Ended -> None
    | Running start ->
      spans.running <- spans.running - 1;
      Some (Some start)
    | Unseen -> Some None
  in
  Option.iter
    (fun t_begin ->
      waiter.x_phase <- Ended;
      spans.on_close
        (Transaction
           { t_txn = txn; t_begin; t_finish = time; t_outcome = outcome }))
    t_begin

let handle spans { Event.time; kind } =
  if time > spans.last_time then spans.last_time <- time;
  match kind with
  | Event.Lock_waited { txn; resource = name; mode; blockers; lu; holders } -> (
    let resource = resource spans name lu in
    let waiter = waiter spans txn in
    let live = live_of spans name blockers holders in
    match find_wait waiter resource with
    | Some opened ->
      cut opened time;
      opened.o_live <- live
    | None ->
      let opened =
        { o_wait =
            { s_txn = txn; s_resource = name; s_mode = mode; s_lu = lu;
              s_blockers = blockers; s_holders = holders;
              s_holder_modes = holder_modes spans name blockers holders;
              s_start = time; s_finish = time; s_outcome = Unfinished;
              s_segments = [] };
          o_waiter = waiter; o_on = resource;
          o_seg_start = time; o_live = live; o_segments = [] }
      in
      spans.open_waits <- spans.open_waits + 1;
      waiter.x_waits <- opened :: waiter.x_waits;
      resource.r_waits <- opened :: resource.r_waits)
  | Event.Lock_granted { txn; resource = name; mode; lu; _ } ->
    let resource = resource spans name lu in
    if resource.r_waits <> [] then
      Option.iter
        (fun opened -> close spans opened time Granted)
        (List.find_opt (fun opened -> opened.o_wait.s_txn = txn)
           resource.r_waits);
    Hashtbl.replace spans.held (txn, name) mode
  | Event.Conversion { txn; resource = name; to_mode; lu; _ } ->
    ignore (resource spans name lu : resource);
    Hashtbl.replace spans.held (txn, name) to_mode
  | Event.Lock_released { txn; resource = name; lu } ->
    Hashtbl.remove spans.held (txn, name);
    List.iter
      (fun opened -> release opened time txn)
      (resource spans name lu).r_waits
  | Event.Lock_requested { resource = name; lu = Some _ as lu; _ } ->
    ignore (resource spans name lu : resource)
  | Event.Timeout_abort { txn; resource = name; lu; _ } ->
    ignore (resource spans name lu : resource);
    abort spans txn time "timeout"
  | Event.Victim_aborted { txn; _ } -> abort spans txn time "deadlock"
  | Event.Contention_abort { txn; _ } -> abort spans txn time "contention"
  | Event.Txn_abort { txn; reason } ->
    abort spans txn time reason;
    end_txn spans (waiter spans txn) txn time (Some reason)
  | Event.Txn_begin { txn } ->
    let waiter = waiter spans txn in
    if waiter.x_phase = Unseen then begin
      waiter.x_phase <- Running time;
      spans.running <- spans.running + 1
    end
  | Event.Txn_commit { txn } ->
    end_txn spans (waiter spans txn) txn time (Some "commit")
  | Event.Lock_requested { lu = None; _ } | Event.Escalation _
  | Event.Deescalation _ | Event.Deadlock_detected _ | Event.Query_executed _
  | Event.Sim_step _ | Event.Waits_for _ | Event.Run_meta _
  | Event.Slo_breach _ | Event.Admission _ | Event.Admission_limit _
  | Event.Breaker _ | Event.Retry_denied _ ->
    ()

let finish spans =
  let time = Float.max 0.0 spans.last_time in
  Hashtbl.fold (fun _txn waiter all -> waiter.x_waits @ all) spans.txns []
  |> List.sort (fun a b ->
         compare
           (a.o_wait.s_start, a.o_wait.s_txn, a.o_wait.s_resource)
           (b.o_wait.s_start, b.o_wait.s_txn, b.o_wait.s_resource))
  |> List.iter (fun opened -> close spans opened time Unfinished);
  Hashtbl.fold
    (fun txn waiter running ->
      match waiter.x_phase with
      | Running _ -> (txn, waiter) :: running
      | Unseen | Ended -> running)
    spans.txns []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (txn, waiter) -> end_txn spans waiter txn time None);
  let kept = List.rev !(spans.kept) in
  spans.kept := [];
  kept

let abort_cause = function
  | Event.Victim_aborted _ -> Some "deadlock"
  | Event.Timeout_abort _ -> Some "timeout"
  | Event.Contention_abort _ -> Some "contention"
  | Event.Txn_abort { reason; _ } -> (
    match reason with
    | "deadlock_victim" | "timeout_victim" | "contention_victim" ->
      None (* a victim's echo, counted through its specific event *)
    | reason -> Some reason)
  | _ -> None

let of_events events =
  let spans = create () in
  List.iter (handle spans) events;
  finish spans

(* ------------------------------------------------------ run splitting *)

type 'run splitter = {
  start : unit -> 'run;
  push : 'run -> Event.t -> unit;
  flush : string option -> 'run -> unit;
  mutable current : 'run option;
  mutable label : string option;  (* the delimiter that opened the run *)
}

let splitter ~start ~push ~flush =
  { start; push; flush; current = None; label = None }

let end_split splitter =
  (match splitter.current, splitter.label with
   | Some run, label -> splitter.flush label run
   | None, (Some _ as label) -> splitter.flush label (splitter.start ())
   | None, None -> ());
  splitter.current <- None;
  splitter.label <- None

let split splitter event =
  match event.Event.kind with
  | Event.Run_meta { label } ->
    end_split splitter;
    splitter.label <- Some label
  | _ ->
    let run =
      match splitter.current with
      | Some run -> run
      | None ->
        let run = splitter.start () in
        splitter.current <- Some run;
        run
    in
    splitter.push run event

let runs events =
  let collected = ref [] in
  let splitter =
    splitter
      ~start:(fun () -> ref [])
      ~push:(fun batch event -> batch := event :: !batch)
      ~flush:(fun label batch ->
        collected := (label, List.rev !batch) :: !collected)
  in
  List.iter (split splitter) events;
  end_split splitter;
  List.rev !collected
