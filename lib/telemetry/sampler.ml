(* Engine-driven periodic sampler.

   Each probe is a closure read once per tick; the sample sets the
   probe's gauge and, when a histogram name is given, also feeds an
   aggregated histogram in the current registry (e.g. the p99 of every
   port's queue depth over the whole run).

   The tick reschedules itself only while the engine still has other
   pending work, so a finished simulation drains naturally instead of
   being kept alive by its own instrumentation. *)

type probe = {
  name : string;
  labels : Metrics.labels;
  read : unit -> float;
  histogram : string option;
}

type t = {
  engine : Engine.t;
  interval : Sim_time.t;
  mutable probes : probe list;  (* newest first *)
  mutable started : bool;
  mutable cb_tick : Engine.callback;
}

let add_probe t ?(labels = []) ?histogram ~name read =
  t.probes <- { name; labels; read; histogram } :: t.probes

let sample t =
  List.iter
    (fun p ->
      let v = p.read () in
      (match p.histogram with
      | Some h -> Telemetry.observe ~labels:p.labels h v
      | None -> ());
      match Telemetry.metrics () with
      | Some m -> Metrics.set (Metrics.gauge m ~labels:p.labels p.name) v
      | None -> ())
    t.probes

let rec tick t =
  sample t;
  (* Only instrumentation left in the queue: let the run end. *)
  if Engine.pending t.engine > 0 then schedule t

and schedule t =
  ignore
    (Engine.schedule_call t.engine ~delay:t.interval t.cb_tick ~obj:(Obj.repr ()))

let create ~engine ~interval =
  if interval <= 0 then invalid_arg "Sampler.create: interval must be positive";
  let t =
    {
      engine;
      interval;
      probes = [];
      started = false;
      cb_tick = Engine.null_callback;
    }
  in
  t.cb_tick <- Engine.register_callback engine (fun _ -> tick t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    schedule t
  end
