(* Wait-time flamegraphs: fold blocked time along the instance-graph path.

   Resources are slash-joined node paths ([Colock.Node_id.to_resource],
   which escapes a literal '/' inside a step as "//"), so a wait span
   already names the chain entry point -> ... -> inner LU that the paper's
   rule 2 locked top-down. Each span becomes one stack — the path steps
   plus the requested mode as the leaf frame — weighted by its blocked
   duration, and equal stacks merge. The folded-stacks text this renders
   is the input format of Brendan Gregg's flamegraph.pl, so
   [colock flame trace.jsonl | flamegraph.pl] draws where the wall-clock
   went without any custom tooling. *)

type stack = { frames : string list; weight : float }

type t = {
  label : string option;
  stacks : stack list;  (* lexicographic by frames, merged *)
  total : float;
}

let label flame = flame.label
let stacks flame = List.map (fun { frames; weight } -> (frames, weight)) flame.stacks
let total flame = flame.total

(* Inverse of [Node_id.escape] + join: split on single '/', un-escape
   "//" back to a literal '/'. *)
let path_steps resource =
  let buffer = Buffer.create 16 in
  let steps = ref [] in
  let length = String.length resource in
  let push () =
    steps := Buffer.contents buffer :: !steps;
    Buffer.clear buffer
  in
  let rec scan index =
    if index >= length then ()
    else if resource.[index] = '/' then
      if index + 1 < length && resource.[index + 1] = '/' then begin
        Buffer.add_char buffer '/';
        scan (index + 2)
      end
      else begin
        push ();
        scan (index + 1)
      end
    else begin
      Buffer.add_char buffer resource.[index];
      scan (index + 1)
    end
  in
  scan 0;
  push ();
  List.rev !steps

(* Folded-stacks syntax reserves ';' (frame separator) and ' ' (weight
   separator); frames must not contain either. *)
let sanitize frame =
  String.map (function ';' -> ':' | ' ' -> '_' | c -> c) frame

let frames_of_span span =
  let { Spans.s_resource; s_mode; _ } = span in
  List.map sanitize (path_steps s_resource) @ [ "mode:" ^ sanitize s_mode ]

let of_spans ?label spans =
  let table = Hashtbl.create 64 in
  let total =
    List.fold_left
      (fun total span ->
        let weight = Spans.duration span in
        if weight > 0.0 then begin
          let frames = frames_of_span span in
          let current =
            Option.value ~default:0.0 (Hashtbl.find_opt table frames)
          in
          Hashtbl.replace table frames (current +. weight)
        end;
        total +. weight)
      0.0 spans
  in
  let stacks =
    Hashtbl.fold
      (fun frames weight accu -> { frames; weight } :: accu)
      table []
    |> List.sort (fun a b -> compare a.frames b.frames)
  in
  { label; stacks; total }

let of_report (report : Profile.report) =
  of_spans ?label:report.Profile.label report.Profile.spans

let of_trace events = List.map of_report (Profile.of_trace events)

let pp formatter flame =
  List.iter
    (fun { frames; weight } ->
      Format.fprintf formatter "%s %g@," (String.concat ";" frames) weight)
    flame.stacks

let print channel flame =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@?" pp flame
