(** Per-packet load-balancing policies for choosing among equal-cost
    next hops.

    Control packets (ACK / NACK / CNP / pause) always follow the flow's
    ECMP path regardless of policy, keeping the reverse control channel
    in order; only data packets are sprayed. *)

type t =
  | Ecmp  (** Flow-level hashing — the deployed default the paper indicts. *)
  | Random_spray  (** Uniform per-packet choice (Dixit et al.). *)
  | Adaptive
      (** Per-packet least-loaded egress ("adaptive routing" baseline of
          Section 5), ties broken uniformly. *)
  | Psn_spray
      (** Eq. 1 — the deterministic spraying Themis-S enforces.  Usable
          standalone (for ablation) or through [Themis_s]. *)
  | Reps
      (** Recycled entropy spraying (Bonato et al.): entropies whose
          ACKs come back clean are cached per flow and recycled; ECN or
          loss forces fresh entropy.  Needs the source ToR's
          {!Lb_state.t} and the RNIC's ACK-borne entropy echo. *)
  | Prime
      (** Multi-part entropy: pseudo-random base part (flow x PSN) plus
          a congestion-adaptive part bumped on ECN echo. *)
  | Sprinklers
      (** Variable-size per-(flow, output) striping (Ding et al.),
          reordering-free by construction: an output switch at a stripe
          boundary may only move to a queue at least as deep as the
          current one. *)
  | Spritz
      (** Path-aware weighted spraying: egress picked proportionally to
          {!Routing.path_weights} (shortest-path multiplicities), damped
          by queue depth — equalizes load under post-failure path-count
          asymmetry where uniform spraying overloads the surviving
          paths. *)

val all : t list
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val ecmp_index : pkt:Packet.t -> n:int -> int
(** The flow's ECMP choice among [n] candidates (hash of the packet's
    addressing + entropy field). *)

val choose :
  ?state:Lb_state.t ->
  ?weights:int array ->
  t ->
  rng:Rng.t ->
  pkt:Packet.t ->
  n:int ->
  load:(int -> int) ->
  int
(** Pick a candidate index in [[0, n)].  [load i] is the queued byte count
    of candidate [i] (used by [Adaptive], [Sprinklers], [Spritz]).
    [state] is the source ToR's per-flow spraying state — required for
    [Reps]/[Prime]/[Sprinklers] to act (they fall back to ECMP hashing
    without it, which is what mid-fabric switches do).  [weights] is the
    per-candidate path-multiplicity row for [Spritz] (falls back to
    uniform spraying).  [Reps] and [Prime] rewrite [pkt.udp_sport] with
    the chosen entropy so downstream tiers hash it. *)

val choose_at :
  shift:int ->
  ?state:Lb_state.t ->
  ?weights:int array ->
  t ->
  rng:Rng.t ->
  pkt:Packet.t ->
  n:int ->
  load:(int -> int) ->
  int
(** Like {!choose} but hashing with the tier's ECMP bit window (see
    {!Ecmp_hash.path_of_hash_at}) — used by multi-tier fabrics where each
    tier consumes a different slice of the header hash. *)
