(* Causal blame: who caused each blocked tick.

   [Profile] answers *where* blocked time lands (level, depth, resource,
   conflict cell); this module answers *who* it lands on.  [Spans] cuts
   every wait into segments at the moments its blocker set changes; each
   segment's length is split equally across the blockers live in it, so
   concurrent holders share the blame and the shares of a wait sum to its
   duration.  Summed over any partition (per blocker, per victim, per
   wait), blame therefore equals [Profile]'s [total_blocked] — the report
   never invents or loses a tick.  Waits caused by the FIFO queue rule
   alone charge the [Queue] pseudo-blocker, mirroring the ["queue"] holder
   of [Profile]'s conflict matrix. *)

let agent_order = function Spans.Txn txn -> txn | Spans.Queue -> max_int

let compare_agent a b = Int.compare (agent_order a) (agent_order b)

let agent_label = function
  | Spans.Txn txn -> Printf.sprintf "T%d" txn
  | Spans.Queue -> "queue"

type share = {
  sh_agent : Spans.agent;
  sh_mode : string option;
  sh_blame : float;
}

type wait = {
  w_span : Spans.wait;
  w_shares : share list;  (* blame descending; sums to the span duration *)
}

let duration wait = Spans.duration wait.w_span

type txn_blame = {
  x_txn : int;
  x_begin : float option;
  x_end : (string * float) option;  (* ("commit" | abort reason, time) *)
  x_waits : wait list;  (* close order *)
  x_blocked : float;  (* this transaction's own blocked time *)
  x_caused : float;  (* blame charged to it by everyone else's waits *)
}

type blocker_stat = { k_agent : Spans.agent; k_blame : float; k_waits : int }

type report = {
  label : string option;
  events : int;
  total_blocked : float;
  total_blamed : float;  (* conservation: equals [total_blocked] *)
  wait_count : int;
  waits : wait list;  (* close order *)
  txns : txn_blame list;  (* txn ascending *)
  blockers : blocker_stat list;  (* blame descending, ties by agent *)
}

(* --------------------------------------------------------------- folding *)

type t = { spans : Spans.t; mutable events : int }

let create () = { spans = Spans.create (); events = 0 }

let handle blame event =
  blame.events <- blame.events + 1;
  Spans.handle blame.spans event

let add_charge charges agent mode amount =
  let rec bump = function
    | [] -> [ (agent, mode, amount) ]
    | (a, m, blame) :: rest when compare_agent a agent = 0 ->
      (* keep the first mode seen; the blocker may convert mid-wait *)
      let m = match m with Some _ -> m | None -> mode in
      (a, m, blame +. amount) :: rest
    | charge :: rest -> charge :: bump rest
  in
  bump charges

(* Each segment's length split equally across its blockers; equal splits
   are inexact in floating point, so the residual is folded into the
   largest share and the shares sum to the span duration exactly. *)
let shares_of (span : Spans.wait) =
  let charges =
    List.fold_left
      (fun charges { Spans.g_length; g_blockers } ->
        let width = g_length /. float_of_int (List.length g_blockers) in
        List.fold_left
          (fun charges { Spans.b_agent; b_mode } ->
            add_charge charges b_agent b_mode width)
          charges g_blockers)
      [] span.s_segments
  in
  let total =
    List.fold_left (fun sum (_, _, blame) -> sum +. blame) 0.0 charges
  in
  let residual = Spans.duration span -. total in
  let largest =
    List.fold_left
      (fun best (agent, _, blame) ->
        match best with
        | Some (_, best_blame) when best_blame >= blame -> best
        | Some _ | None -> Some (agent, blame))
      None charges
  in
  let charges =
    match largest with
    | None -> charges
    | Some (winner, _) ->
      List.map
        (fun ((agent, mode, blame) as charge) ->
          if compare_agent agent winner = 0 then
            (agent, mode, blame +. residual)
          else charge)
        charges
  in
  List.map
    (fun (sh_agent, sh_mode, sh_blame) -> { sh_agent; sh_mode; sh_blame })
    charges
  |> List.sort (fun a b ->
         match Float.compare b.sh_blame a.sh_blame with
         | 0 -> compare_agent a.sh_agent b.sh_agent
         | order -> order)

(* ----------------------------------------------------- report assembly *)

module Int_map = Map.Make (Int)

let finish ?label blame =
  let waits, transactions =
    List.fold_left
      (fun (waits, transactions) -> function
        | Spans.Wait span ->
          ({ w_span = span; w_shares = shares_of span } :: waits, transactions)
        | Spans.Transaction transaction ->
          (waits, Int_map.add transaction.Spans.t_txn transaction transactions))
      ([], Int_map.empty)
      (Spans.finish blame.spans)
  in
  let waits = List.rev waits in
  let total_blocked =
    List.fold_left (fun total wait -> total +. duration wait) 0.0 waits
  in
  let total_blamed =
    List.fold_left
      (fun total wait ->
        List.fold_left
          (fun total share -> total +. share.sh_blame)
          total wait.w_shares)
      0.0 waits
  in
  (* per-blocker aggregation *)
  let bump_blocker map agent blame_amount =
    let blame_total, count =
      match List.assoc_opt agent map with
      | Some entry -> entry
      | None -> (0.0, 0)
    in
    (agent, (blame_total +. blame_amount, count + 1))
    :: List.remove_assoc agent map
  in
  let blocker_map =
    List.fold_left
      (fun map wait ->
        List.fold_left
          (fun map share -> bump_blocker map share.sh_agent share.sh_blame)
          map wait.w_shares)
      [] waits
  in
  let blockers =
    List.map
      (fun (k_agent, (k_blame, k_waits)) -> { k_agent; k_blame; k_waits })
      blocker_map
    |> List.sort (fun a b ->
           match Float.compare b.k_blame a.k_blame with
           | 0 -> compare_agent a.k_agent b.k_agent
           | order -> order)
  in
  (* per-transaction trees: every transaction that began, ended, waited or
     blocked someone *)
  let own_waits =
    List.fold_left
      (fun map wait ->
        let txn = wait.w_span.s_txn in
        Int_map.add txn
          (wait :: Option.value ~default:[] (Int_map.find_opt txn map))
          map)
      Int_map.empty waits
  in
  let caused_by =
    List.fold_left
      (fun map wait ->
        List.fold_left
          (fun map share ->
            match share.sh_agent with
            | Spans.Queue -> map
            | Spans.Txn txn ->
              let current =
                Option.value ~default:0.0 (Int_map.find_opt txn map)
              in
              Int_map.add txn (current +. share.sh_blame) map)
          map wait.w_shares)
      Int_map.empty waits
  in
  let ids map = Int_map.fold (fun txn _ ids -> txn :: ids) map [] in
  let txn_ids =
    List.sort_uniq Int.compare
      (ids transactions @ ids own_waits @ ids caused_by)
  in
  let txns =
    List.map
      (fun txn ->
        let x_waits =
          List.rev (Option.value ~default:[] (Int_map.find_opt txn own_waits))
        in
        let transaction = Int_map.find_opt txn transactions in
        { x_txn = txn;
          x_begin = Option.bind transaction (fun t -> t.Spans.t_begin);
          x_end =
            Option.bind transaction (fun t ->
                Option.map
                  (fun cause -> (cause, t.Spans.t_finish))
                  t.t_outcome);
          x_waits;
          x_blocked =
            List.fold_left
              (fun total wait -> total +. duration wait)
              0.0 x_waits;
          x_caused =
            Option.value ~default:0.0 (Int_map.find_opt txn caused_by) })
      txn_ids
  in
  { label; events = blame.events; total_blocked; total_blamed;
    wait_count = List.length waits; waits; txns; blockers }

let of_events ?label events =
  let blame = create () in
  List.iter (handle blame) events;
  finish ?label blame

let of_trace events =
  List.map (fun (label, events) -> of_events ?label events) (Spans.runs events)

(* ------------------------------------------------------------ rendering *)

let outcome_label = function
  | Spans.Granted -> "granted"
  | Spans.Aborted cause -> "aborted:" ^ cause
  | Spans.Unfinished -> "unfinished"

let json_of_share share =
  Json.Obj
    [ ("blocker", Json.String (agent_label share.sh_agent));
      ( "mode",
        match share.sh_mode with
        | Some mode -> Json.String mode
        | None -> Json.Null );
      ("blame", Json.Float share.sh_blame) ]

let json_of_wait { w_span = span; w_shares } =
  Json.Obj
    [ ("txn", Json.Int span.s_txn);
      ("resource", Json.String span.s_resource);
      ("mode", Json.String span.s_mode);
      ("start", Json.Float span.s_start);
      ("finish", Json.Float span.s_finish);
      ("outcome", Json.String (outcome_label span.s_outcome));
      ("shares", Json.List (List.map json_of_share w_shares)) ]

let to_json report =
  Json.Obj
    [ ( "label",
        match report.label with
        | Some label -> Json.String label
        | None -> Json.Null );
      ("events", Json.Int report.events);
      ("total_blocked", Json.Float report.total_blocked);
      ("total_blamed", Json.Float report.total_blamed);
      ("wait_count", Json.Int report.wait_count);
      ( "transactions",
        Json.List
          (List.map
             (fun txn ->
               Json.Obj
                 [ ("txn", Json.Int txn.x_txn);
                   ( "begin",
                     match txn.x_begin with
                     | Some time -> Json.Float time
                     | None -> Json.Null );
                   ( "end",
                     match txn.x_end with
                     | Some (cause, time) ->
                       Json.Obj
                         [ ("cause", Json.String cause);
                           ("time", Json.Float time) ]
                     | None -> Json.Null );
                   ("blocked", Json.Float txn.x_blocked);
                   ("caused", Json.Float txn.x_caused);
                   ("waits", Json.List (List.map json_of_wait txn.x_waits)) ])
             report.txns) );
      ( "blockers",
        Json.List
          (List.map
             (fun stat ->
               Json.Obj
                 [ ("blocker", Json.String (agent_label stat.k_agent));
                   ("blame", Json.Float stat.k_blame);
                   ("waits", Json.Int stat.k_waits) ])
             report.blockers) ) ]

let truncated limit items = List.filteri (fun index _item -> index < limit) items

let pp ?(top = 10) formatter report =
  let line format = Format.fprintf formatter format in
  (match report.label with
   | Some label -> line "=== blame report: %s ===@," label
   | None -> line "=== blame report ===@,");
  line "blocked %g across %d wait(s); blamed %g@," report.total_blocked
    report.wait_count report.total_blamed;
  if report.blockers <> [] then begin
    line "@,top blockers (top %d of %d):@,"
      (min top (List.length report.blockers))
      (List.length report.blockers);
    line "  %-8s %12s %8s@," "BLOCKER" "BLAME" "WAITS";
    List.iter
      (fun stat ->
        line "  %-8s %12g %8d@," (agent_label stat.k_agent) stat.k_blame
          stat.k_waits)
      (truncated top report.blockers)
  end

let pp_share formatter share =
  Format.fprintf formatter "%s%s: %g" (agent_label share.sh_agent)
    (match share.sh_mode with
     | Some mode -> Printf.sprintf " (%s)" mode
     | None -> "")
    share.sh_blame

(* The per-transaction span tree: begin, each wait with its per-holder
   blame, the final commit/abort — [colock explain]'s payload. *)
let explain formatter report ~txn =
  let line format = Format.fprintf formatter format in
  match List.find_opt (fun entry -> entry.x_txn = txn) report.txns with
  | None -> line "T%d: no events in this run@," txn
  | Some entry ->
    line "T%d: %s, %s@," txn
      (match entry.x_begin with
       | Some time -> Printf.sprintf "begin %g" time
       | None -> "begin unseen")
      (match entry.x_end with
       | Some (cause, time) -> Printf.sprintf "%s %g" cause time
       | None -> "still running at stream end");
    line "blocked %g across %d wait(s); blamed for %g elsewhere@,"
      entry.x_blocked
      (List.length entry.x_waits)
      entry.x_caused;
    List.iter
      (fun wait ->
        let span = wait.w_span in
        line "|- wait %s (%s) [%g..%g] %s: %g@," span.s_resource span.s_mode
          span.s_start span.s_finish
          (outcome_label span.s_outcome)
          (duration wait);
        List.iter
          (fun share -> line "|    blocked by %a@," pp_share share)
          wait.w_shares)
      entry.x_waits

let print_explain channel report ~txn =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@."
    (fun fmt report -> explain fmt report ~txn)
    report

let print ?top channel report =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@." (fun fmt -> pp ?top fmt) report
