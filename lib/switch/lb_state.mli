(** Per-source-ToR state for the stateful arena spraying policies
    (REPS / PRIME / Sprinklers), keyed by interned connection id.

    The module-level counters back the policy invariant oracles (e.g.
    REPS must never recycle a tainted entropy); like the packet uid
    counter and the flow-id interner they are process-wide; every fabric
    build resets them via {!reset_globals} ([Fabric_core.create]), or
    serial-vs-forked byte-identity would break. *)

type t

val create : unit -> t

(** {2 REPS — recycled entropy spraying (Bonato et al.)} *)

val reps_next : t -> conn_id:int -> rng:Rng.t -> int
(** Entropy for the next data packet of the flow: the oldest cached
    clean entropy when one is available, a fresh random value
    otherwise. *)

val reps_feedback : t -> conn_id:int -> entropy:int -> ce:bool -> unit
(** ACK/NACK-borne echo: a clean echo recycles [entropy] into the cache;
    a CE-marked echo evicts it and marks it tainted.  [entropy < 0]
    (no echo) is ignored. *)

(** {2 PRIME — multi-part entropy} *)

val prime_adapt : t -> conn_id:int -> int
(** Current congestion-adaptive entropy part of the flow. *)

val prime_feedback : t -> conn_id:int -> ce:bool -> unit
(** Bump the adaptive part when the echo saw congestion, steering the
    composed entropy onto a different path set. *)

(** {2 Sprinklers — reordering-free variable-size striping (Ding et al.)} *)

val sprinkler_choose :
  t -> conn_id:int -> bytes:int -> n:int -> load:(int -> int) -> int
(** Output for a [bytes]-sized data packet.  Within a stripe the flow
    sticks to its output; at a stripe boundary it may only move to an
    output at least as loaded as the current one (the no-overtake
    condition), with the stripe sized to the queue differential. *)

(** {2 Invariant counters} *)

val reset_globals : unit -> unit

val counters : unit -> (string * int) list
(** [reps_recycled], [reps_fresh], [reps_tainted_recycled] (must stay
    0), [prime_bumps], [sprinkler_switches], [spritz_picks]. *)

val note_spritz_pick : unit -> unit
