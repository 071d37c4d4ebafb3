(** Compiles declarative failure scripts onto the existing fault layers.

    Link flaps and spine deaths expand to the fuzz harness's
    {!Fuzz_spec.link_fault} timeline (scheduled by
    {!Fuzz_run.schedule_link_faults}); drop storms become a
    time-windowed {!Fuzz_fault.install} over every port.  Compilation is
    pure and deterministic so the same spec always produces the same
    fault timeline. *)

type storm = { s_start_ns : int; s_stop_ns : int; s_ppm : int }

type compiled = {
  link_faults : Fuzz_spec.link_fault list;  (** Sorted, expanded. *)
  storms : storm list;
}

val compile : shape:Fuzz_spec.shape -> Workload_spec.failure list -> compiled

val schedule :
  net:Network.t ->
  shape:Fuzz_spec.shape ->
  seed:int ->
  compiled ->
  Fuzz_fault.counters list
(** Install everything on a built network (before running it): link
    events on the engine timeline, one windowed fault layer per storm.
    Returns the storm drop counters for end-of-run accounting. *)

val storm_drops : Fuzz_fault.counters list -> int
(** Data + control packets the storms deleted. *)
