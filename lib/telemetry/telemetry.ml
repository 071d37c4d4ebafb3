(* Process-global telemetry context.

   One context is current at a time (experiments run sequentially);
   [enable] installs a fresh context and [disable] removes it.  Every
   recording site guards with [enabled ()], so the cost with telemetry
   off is one load + branch and no allocation. *)

type t = {
  metrics : Metrics.t;
  events : (Sim_time.t * Event.t) Ring.t;
  kind_counts : int array;  (* per Event.kind_index, includes overwritten *)
}

let current : t option ref = ref None

let default_event_capacity = 1 lsl 16

let make ?(event_capacity = default_event_capacity) () =
  {
    metrics = Metrics.create ();
    events = Ring.create ~capacity:event_capacity;
    kind_counts = Array.make Event.kinds 0;
  }

let enable ?event_capacity () =
  let ctx = make ?event_capacity () in
  current := Some ctx;
  ctx

let disable () = current := None

let enabled () =
  match !current with None -> false | Some _ -> true

let ctx () = !current

let metrics () =
  match !current with
  | Some c -> Some c.metrics
  | None -> None

let metrics_exn () =
  match !current with
  | Some c -> c.metrics
  | None -> failwith "Telemetry: not enabled"

let record ~time ev =
  match !current with
  | None -> ()
  | Some c ->
      let k = Event.kind_index ev in
      c.kind_counts.(k) <- c.kind_counts.(k) + 1;
      Ring.push c.events (time, ev)

let events c = Ring.to_list c.events
let events_retained c = Ring.length c.events
let events_dropped c = Ring.dropped c.events

let events_by_kind c =
  Array.to_list
    (Array.mapi (fun i n -> (Event.kind_name_of_index i, n)) c.kind_counts)

let event_count c ev_kind_index = c.kind_counts.(ev_kind_index)

(* --- Registry conveniences (lookup per call; fine off hot paths) ----- *)

let incr_counter ?labels name =
  match !current with
  | None -> ()
  | Some c -> Metrics.incr (Metrics.counter c.metrics ?labels name)

let add_counter ?labels name n =
  match !current with
  | None -> ()
  | Some c -> Metrics.add (Metrics.counter c.metrics ?labels name) n

let observe ?labels name v =
  match !current with
  | None -> ()
  | Some c -> Metrics.observe (Metrics.histogram c.metrics ?labels name) v
