(** Seed-sweep drivers: the engine behind [themis_fuzz_cli].

    [quick] sweeps a contiguous seed range with {!Fuzz_spec.Quick}
    generation bounds (the CI configuration — a few hundred scenarios,
    each run under every scheme); [soak] uses the bigger
    {!Fuzz_spec.Soak} bounds.  Every [det_every]-th spec is additionally
    run twice under one scheme and the two runs' telemetry summaries and
    typed-event JSONL dumps are compared — structural and byte equality
    respectively — as the determinism oracle.

    Each failure is shrunk to a minimal spec (unless [minimize:false])
    and reported with a one-line [replay] reproducer. *)

type failure = {
  f_seed : int;  (** Generation seed ([-1] for replayed specs). *)
  f_scheme : string;
  f_spec : Fuzz_spec.t;  (** As generated / parsed. *)
  f_minimized : Fuzz_spec.t option;  (** After shrinking, if it still fails. *)
  f_violations : Fuzz_oracle.violation list;
}

type report = {
  r_specs : int;  (** Scenarios generated and run. *)
  r_runs : int;  (** (spec, scheme) executions, shrinking included. *)
  r_det_checks : int;
  r_failures : failure list;
  r_wall_s : float;
}

val ok : report -> bool

val repro_line : Fuzz_spec.t -> string
(** The [dune exec bin/themis_fuzz_cli.exe -- replay '...'] one-liner. *)

val divergence :
  log:(string -> unit) -> seed:int -> Fuzz_spec.t -> scheme:string ->
  Fuzz_run.outcome -> Fuzz_run.outcome -> failure option
(** Compare two runs of [spec] under [scheme]: [Some _] iff their
    telemetry summaries or JSONL event dumps differ.  On a difference it
    logs both summaries ({!Experiment.pp_telemetry_summary}) and a
    [replay] line. *)

val determinism_check :
  log:(string -> unit) -> seed:int -> Fuzz_spec.t -> scheme:string ->
  failure option
(** Run [spec] twice under [scheme] and compare with {!divergence}. *)

val run_seeds :
  ?profile:Fuzz_spec.profile ->
  ?det_every:int ->
  ?minimize:bool ->
  ?budget_s:float ->
  ?log:(string -> unit) ->
  seeds:int list ->
  unit ->
  report
(** [budget_s] stops {e generating new specs} once the wall budget is
    spent (never mid-spec); 0 means unlimited.  [log] receives
    human-readable progress lines. *)

val quick :
  ?specs:int -> ?seed:int -> ?budget_s:float -> ?log:(string -> unit) ->
  unit -> report
(** Defaults: 200 specs from seed 1, determinism check every 10th. *)

val soak :
  ?specs:int -> ?seed:int -> ?budget_s:float -> ?log:(string -> unit) ->
  unit -> report

val replay :
  ?log:(string -> unit) -> string -> (report, string) Stdlib.result
(** Parse a spec (or [gen:<seed>] form), run every scheme it names, and
    double-run the first scheme as a determinism check. *)
