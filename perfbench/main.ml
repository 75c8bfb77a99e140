(* perfbench: the wall-clock benchmark of colock.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics from untraced passes
   (Endtoend); [--trace 1] measures the per-layer metrics from a separate
   traced pass (Layers). Detail goes to stderr; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}. Exits 1 when a
   correctness check fails, 2 on bad arguments. See NOTES.md. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 in
  let trace = ref 0 in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
  in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N run seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S seconds of measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)") ]
  in
  let bad message =
    prerr_endline ("perfbench: " ^ message);
    prerr_endline usage;
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv specs (fun arg -> bad ("unexpected " ^ arg)) usage
   with Arg.Bad message | Arg.Help message -> bad message);
  let workload =
    match Workloads.find !workload with
    | Some workload -> workload
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be given and >= 0";
  if !seconds < 1 then bad "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  match
    if !trace = 0 then
      Endtoend.run workload ~seed:!seed ~seconds:(float_of_int !seconds)
    else Layers.run workload ~seed:!seed
  with
  | attempted, failed, metrics ->
    Report.print_table metrics;
    Report.print ~correct:true ~attempted ~failed metrics
  | exception Report.Incorrect message ->
    Report.log "perfbench: correctness check failed: %s" message;
    Report.print ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
