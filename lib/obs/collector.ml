(* Event-driven metrics: the collector is itself a sink handler.  It counts
   every event kind and feeds three latency histograms:

     lock_wait      Granted wait spans                    (Spans)
     grant_latency  Lock_requested(t0) -> Lock_granted(t1)   same txn+resource
     txn_response   committed transaction spans           (Spans)

   Histograms are pre-declared so exports carry stable keys even for runs
   with no waits. *)

let wait_histogram = "lock_wait"
let grant_histogram = "grant_latency"
let response_histogram = "txn_response"

type t = {
  registry : Registry.t;
  requests : (int * string, float) Hashtbl.t;
  spans : Spans.t;
}

let observe registry = function
  | Spans.Wait ({ s_outcome = Spans.Granted; _ } as wait) ->
    Registry.observe registry wait_histogram (Spans.duration wait)
  | Spans.Transaction
      { t_begin = Some start; t_finish; t_outcome = Some "commit"; _ } ->
    Registry.observe registry response_histogram
      (Float.max 0.0 (t_finish -. start))
  | Spans.Wait _ | Spans.Transaction _ -> ()

let create ?registry ?(on_close = ignore) () =
  let registry =
    match registry with Some registry -> registry | None -> Registry.create ()
  in
  let (_ : Histogram.t) = Registry.histogram registry wait_histogram in
  let (_ : Histogram.t) = Registry.histogram registry grant_histogram in
  let (_ : Histogram.t) = Registry.histogram registry response_histogram in
  { registry; requests = Hashtbl.create 64;
    spans =
      Spans.create
        ~on_close:(fun span ->
          observe registry span;
          on_close span)
        () }

let registry collector = collector.registry
let spans collector = collector.spans

let handle collector event =
  let { Event.time; kind } = event in
  Registry.incr collector.registry ("events." ^ Event.name kind);
  (match kind with
   | Event.Lock_requested { txn; resource; _ } ->
     Hashtbl.replace collector.requests (txn, resource) time
   | Event.Lock_granted { txn; resource; _ } -> (
     match Hashtbl.find_opt collector.requests (txn, resource) with
     | Some start ->
       Hashtbl.remove collector.requests (txn, resource);
       Registry.observe collector.registry grant_histogram
         (Float.max 0.0 (time -. start))
     | None -> ())
   | _ -> ());
  Spans.handle collector.spans event
