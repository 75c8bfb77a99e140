(** Chrome [trace_event] export: load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} and lock waits render as spans on
    one timeline row per transaction.

    Each [(name, events)] group becomes one trace "process" (named via
    metadata); transaction ids become thread ids. Each {!Spans} wait
    becomes a ["wait <resource>"] span and each transaction a ["T<n>"]
    span; deadlocks, escalations, queries and simulator steps export as
    instant events. Waits that did not end in a grant and transactions
    still running at the capture's end are tagged [unfinished]. *)

val to_json : ?ts_scale:float -> (string * Event.t list) list -> Json.t
(** [ts_scale] converts event-time units to trace microseconds; the default
    (1000) renders one simulator tick as one millisecond. *)

val write : ?ts_scale:float -> out_channel -> (string * Event.t list) list -> unit
