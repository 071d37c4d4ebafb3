(** Periodic snapshotting of instantaneous quantities (queue depths,
    in-flight bytes).

    Probes may be added at any time, including after [start].  Each tick
    mirrors every probe's current value into a registry gauge and, when
    [histogram] is given, feeds the sample into that aggregated
    histogram of the current telemetry context.

    The sampler stops rescheduling itself once it is the only pending
    engine work, so it never prevents a run from draining. *)

type t

val create : engine:Engine.t -> interval:Sim_time.t -> t

val add_probe :
  t -> ?labels:Metrics.labels -> ?histogram:string -> name:string ->
  (unit -> float) -> unit

val start : t -> unit
(** Schedule the first tick [interval] from now.  Idempotent. *)
