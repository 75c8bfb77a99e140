(** Wait-time flamegraphs: blocked time folded along the instance-graph
    path.

    Every {!Spans} wait becomes one stack — the resource's
    slash-separated node path (entry point down to the inner lockable
    unit, un-escaping the "//" produced by [Node_id.escape]) plus a final
    [mode:<M>] frame — weighted by the span's blocked duration; equal
    stacks merge. {!print} emits folded-stacks text ([frame;frame;... N]
    per line, stacks sorted), the input format of flamegraph.pl, so
    [colock flame trace.jsonl] pipes straight into standard tooling. *)

type t

val label : t -> string option
val stacks : t -> (string list * float) list
(** Merged [(frames, weight)] stacks, sorted by frames; zero-duration
    spans are dropped. *)

val total : t -> float
(** Total blocked time over all spans — equals
    [Profile.total_blocked]. *)

val path_steps : string -> string list
(** Splits a resource name back into node steps (inverse of the escaping
    join in [Node_id.to_resource]). *)

val of_spans : ?label:string -> Spans.wait list -> t
val of_report : Profile.report -> t

val of_trace : Event.t list -> t list
(** One flame per [Run_meta]-delimited run, as {!Profile.of_trace}. *)

val pp : Format.formatter -> t -> unit
(** Expects a vertical box (see {!print}). *)

val print : out_channel -> t -> unit
