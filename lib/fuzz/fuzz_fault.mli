(** Random per-delivery fault injection.

    [install] wraps the delivery function of every port in the fabric
    (captured through {!Port.deliver_fn}) with an iid fault layer driven
    by the spec's ppm knobs: drops, CRC-style corruptions (observably a
    drop, counted separately), duplicated deliveries and delayed
    deliveries.  Control packets are subject to the same faults — lost
    ACKs, duplicated NACKs and reordered CNPs all exercise recovery paths
    — but only {e data}-packet losses and duplicates enter the
    packet-conservation oracle, hence the split counters.

    The wrapper consumes the given RNG in delivery-event order, which the
    engine makes deterministic, so a seeded run replays exactly. *)

type counters = {
  mutable drops_data : int;
  mutable drops_ctrl : int;
  mutable corrupts_data : int;
  mutable corrupts_ctrl : int;
  mutable dups_data : int;
  mutable dups_ctrl : int;
  mutable delays : int;
}

val install :
  ?window:Sim_time.t * Sim_time.t ->
  engine:Engine.t ->
  rng:Rng.t ->
  spec:Fuzz_spec.t ->
  iter_ports:((Port.t -> unit) -> unit) ->
  unit ->
  counters
(** [?window:(start, stop)] gates the fault layer to simulated times in
    [\[start, stop)]; outside the window packets pass through untouched.
    Defaults to always-on.  Used by workload failure scripts to model
    bounded drop storms. *)

val pp : Format.formatter -> counters -> unit
