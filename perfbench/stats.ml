(* Wall clock and order statistics for the benchmark. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC, allocation-free). *)
let now_ns () = Monotonic_clock.now ()

let seconds_since start = Int64.to_float (Int64.sub (now_ns ()) start) *. 1e-9

(* Times [f ()] and returns its result with the elapsed wall seconds. *)
let timed f =
  let start = now_ns () in
  let result = f () in
  (result, seconds_since start)

(* A fixed allocation-heavy task, timed between passes as a gauge of how
   fast the host runs such code at that moment (NOTES.md, Noise). Its
   lists are short and die young, so it adds little to the major heap. *)
let reference_s () =
  let start = now_ns () in
  for round = 1 to 10 do
    let pairs = List.init 2_000 (fun i -> (((i * 7919) + round) land 1023, i)) in
    let table = Hashtbl.create 256 in
    List.iter
      (fun (key, value) -> Hashtbl.replace table key value)
      (List.sort compare pairs);
    ignore (Sys.opaque_identity (Hashtbl.length table))
  done;
  seconds_since start

(* The middle value (mean of the two middle ones for an even count). *)
let median samples =
  match samples with
  | [] -> Float.nan
  | _ ->
    let sorted = Array.of_list samples in
    Array.sort Float.compare sorted;
    let count = Array.length sorted in
    if count mod 2 = 1 then sorted.(count / 2)
    else (sorted.((count / 2) - 1) +. sorted.(count / 2)) /. 2.0

(* A growable buffer of nanosecond samples (a traced pass records up to a
   few hundred thousand spans per layer). *)
module Samples = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 1024 0; size = 0 }

  let add samples value =
    if samples.size = Array.length samples.data then begin
      let grown = Array.make (2 * samples.size) 0 in
      Array.blit samples.data 0 grown 0 samples.size;
      samples.data <- grown
    end;
    samples.data.(samples.size) <- value;
    samples.size <- samples.size + 1

  let count samples = samples.size

  let total samples =
    let sum = ref 0 in
    for index = 0 to samples.size - 1 do
      sum := !sum + samples.data.(index)
    done;
    !sum

  (* Nearest-rank quantile in ns; 0 when empty. *)
  let quantile samples q =
    if samples.size = 0 then 0.0
    else begin
      let sorted = Array.sub samples.data 0 samples.size in
      Array.sort Int.compare sorted;
      let rank = int_of_float (Float.ceil (q *. float_of_int samples.size)) - 1 in
      float_of_int sorted.(max 0 (min (samples.size - 1) rank))
    end
end
