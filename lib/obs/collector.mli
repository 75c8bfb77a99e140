(** The event→metrics bridge: a sink handler that feeds a {!Registry}.

    Counts every event kind under ["events.<name>"] and fills three latency
    histograms:

    - ["lock_wait"] — the duration of every {!Spans} wait that ended in a
      grant;
    - ["grant_latency"] — [Lock_requested] to [Lock_granted] (immediate
      grants observe ≈ 0, so the histogram shows the full grant path);
    - ["txn_response"] — the duration of every committed {!Spans}
      transaction (restarted deadlock victims keep their original begin
      time). *)

type t

val create :
  ?registry:Registry.t -> ?on_close:(Spans.span -> unit) -> unit -> t
(** The three histograms are pre-declared, so {!Registry.row} exports stable
    keys even for runs without waits. [on_close] sees every span the
    collector's fold closes, after the histograms have. *)

val registry : t -> Registry.t

val spans : t -> Spans.t
(** The span fold the collector runs. *)

val handle : t -> Event.t -> unit
(** Pass [handle collector] to {!Sink.create}. *)
