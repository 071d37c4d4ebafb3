(** Execute one scenario spec under one (or every) scheme.

    A run resets the domain-global run state
    ({!Fabric_core.reset_run_state}), builds a fresh fabric for the
    (spec, scheme) pair with a fresh telemetry context, so two runs of
    the same pair are bit-identical ({!setup}: per-delivery fault layer,
    link faults, transfers), drives it with {!Shard.drive} until every
    transfer completes (or the deadline expires) and the fabric settles,
    and evaluates the {!Fuzz_oracle} invariants ({!judge}).

    The sharded runner ({!Shard_run}) is built from the same parts:
    {!setup} on every shard replica, {!view} over all replicas, the same
    {!Shard.drive} loop with a windowed step, and {!judge}. *)

type outcome = {
  o_scheme : string;
  o_violations : Fuzz_oracle.violation list;
  o_summary : Experiment.telemetry_summary option;
  o_events_jsonl : string;
      (** Full typed-event dump — the determinism oracle compares these
          byte-for-byte across same-seed runs. *)
  o_completed_us : float;  (** Last flow completion (deadline if stuck). *)
  o_data_packets : int;
  o_retx_packets : int;
  o_drops : int;  (** Port + switch + injected data losses. *)
  o_ooo : int;
      (** Out-of-order data arrivals summed over every receive context —
          the arena's reordering metric (zero for Sprinklers on a clean
          symmetric fabric, by construction). *)
  o_tail_fct_us : float;
      (** Worst per-flow completion time (start to done; truncated at the
          deadline for stuck flows) — the arena's ranking metric. *)
  o_themis : Network.themis_totals option;
}

exception Bad_spec of string
(** The spec references hosts or links the shape does not have (only
    reachable through hand-written replay strings). *)

val validate : Fuzz_spec.t -> unit
(** Raise {!Bad_spec} when the spec references hosts or links its shape
    does not have.  [run_scheme] calls this itself; exposed so the
    sharded runner ({!Shard_run}) applies identical checks. *)

val scheme_of : string -> Network.scheme
(** {!Network.scheme_of_string}, raising {!Bad_spec} on unknown names. *)

val schemes_of : Fuzz_spec.t -> string list

type scenario = {
  core : Fabric_core.t;
  ls : Network.t option;
      (** The leaf-spine network, for its topology-specific hooks (link
          faults, slow spines, the Spritz check); [None] on fat trees. *)
  fault : Fuzz_fault.counters;
  flows : Fuzz_oracle.flow_probe list;
}

val setup :
  ?owned:(int -> bool) -> Fuzz_spec.t -> scheme:Network.scheme -> scenario
(** Build the spec's fabric and arm it: the per-delivery fault layer, the
    link-fault timeline, one QP per transfer, and a send posted at each
    transfer's start time when its source host is [owned] (default: all).
    A shard replica passes its ownership; every replica connects every
    transfer, so QP numbers and Themis-D flow tables match the serial
    build.  Raises {!Bad_spec} on shapes it cannot build. *)

val view :
  Fuzz_spec.t ->
  scheme:Network.scheme ->
  cores:Fabric_core.t list ->
  nics:Rnic.t list ->
  ls:Network.t option ->
  lb:(unit -> (string * int) list) ->
  fault:Fuzz_fault.counters ->
  flows:Fuzz_oracle.flow_probe list ->
  Fuzz_oracle.view
(** The oracle view of a run: drop and Themis counters summed over
    [cores] (one fabric, or every shard replica), the per-host [nics],
    the scheme's policy oracle ([lb] reads the LB policy counters). *)

val settle_time : Fuzz_spec.t -> Sim_time.t
(** How long a finished run keeps going so in-flight duplicates, delayed
    deliveries and post-completion NACKs land before it is judged. *)

val judge : Fuzz_spec.t -> scheme:string -> Fuzz_oracle.view -> outcome
(** Check the oracles against the current telemetry context and read the
    outcome's counters off the view. *)

val crashed : scheme:string -> exn -> outcome
(** The outcome of a run that raised: a single ["crash"] violation. *)

val run_scheme : Fuzz_spec.t -> scheme:string -> outcome
(** Propagates simulator exceptions (useful under a debugger). *)

val run_scheme_safe : Fuzz_spec.t -> scheme:string -> outcome
(** Converts a simulator exception into a ["crash"] oracle violation so
    sweeps keep going and the minimizer can shrink crashing scenarios.
    {!Bad_spec} still propagates. *)

val run : Fuzz_spec.t -> outcome list

val failed : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit
