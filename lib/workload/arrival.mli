(** Open-loop arrival processes.

    Arrivals are generated independently of completions (open loop): the
    target rate is [load_pct]% of the fabric's bisection bandwidth
    divided by the mean flow size, so a run offers a known fraction of
    the network's capacity regardless of how the transport behaves.

    [Poisson] draws iid exponential gaps.  [Onoff] alternates
    exponentially-distributed ON and OFF periods (means [on_us] /
    [off_us]) and compresses all arrivals into ON bursts scaled so the
    long-run rate still matches the target load — the bursty,
    synchronized pattern that stresses spraying under transient
    congestion. *)

type process = Poisson | Onoff of { on_us : int; off_us : int }

val process_to_string : process -> string
(** ["poisson"] or ["onoff:ON_US:OFF_US"]; exact round-trip. *)

val process_of_string : string -> (process, string) result

val flows_per_sec :
  load_pct:int -> capacity_bps:float -> mean_flow_bytes:float -> float
(** [load/100 x capacity / (8 x mean_bytes)] — the open-loop rate. *)

type t
(** Stateful gap generator (tracks the ON/OFF phase). *)

val create :
  process:process ->
  load_pct:int ->
  capacity_bps:float ->
  mean_flow_bytes:float ->
  t

val mean_gap_ns : t -> float
(** Long-run mean inter-arrival gap in nanoseconds. *)

val next_gap_ns : t -> Rng.t -> int
(** Nanoseconds until the next arrival; [>= 1].  Consumes the given RNG
    in call order (use a dedicated arrival stream). *)
