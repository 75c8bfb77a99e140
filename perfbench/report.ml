(* What a run reports: named metrics with units, and the correctness
   verdict that makes the run exit non-zero. *)

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

exception Incorrect of string

let require ok message = if not ok then raise (Incorrect message)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let json_number value =
  if Float.is_integer value && Float.abs value < 1e15 then
    Printf.sprintf "%.0f" value
  else Printf.sprintf "%.17g" value

(* The result line: the last line of stdout. *)
let print ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let print_table metrics =
  List.iter
    (fun { name; value; unit_ } -> log "  %-34s %16.6g %s" name value unit_)
    metrics
