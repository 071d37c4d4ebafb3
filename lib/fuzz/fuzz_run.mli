(** Execute one scenario spec under one (or every) scheme.

    A run builds a fresh fabric for the (spec, scheme) pair, which
    resets the process-global run state ({!Fabric_core.create}), with a
    fresh telemetry context, so two runs of the same pair are
    bit-identical (per-delivery fault layer, link faults, transfers),
    drives it with {!Engine.drive} until every transfer completes (or
    the deadline expires) and the fabric settles, and evaluates the
    {!Fuzz_oracle} invariants. *)

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

val schemes_of : Fuzz_spec.t -> string list

val run_scheme : Fuzz_spec.t -> scheme:string -> outcome
(** Propagates simulator exceptions (useful under a debugger). *)

val run_scheme_safe : Fuzz_spec.t -> scheme:string -> outcome
(** Converts a simulator exception into a ["crash"] oracle violation so
    sweeps keep going and the minimizer can shrink crashing scenarios.
    {!Bad_spec} still propagates. *)

val run : Fuzz_spec.t -> outcome list

val failed : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit
