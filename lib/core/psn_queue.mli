(** The ring-based PSN queue of Section 3.3.

    The destination ToR caches, per QP, the PSNs of packets recently
    forwarded on the last hop (ToR -> NIC), in forwarding order.  When a
    NACK carrying only an ePSN comes back, the tPSN — the PSN of the OOO
    packet that triggered the NACK — is recovered by dequeuing entries
    until the first PSN greater than the ePSN: because the RNIC generates
    at most one NACK per ePSN, that first-greater PSN is exactly the
    trigger.

    Capacity is sized from the last hop's bandwidth-delay product with an
    expansion factor [F > 1] for RTT fluctuation (Section 4).  When the
    ring is full the oldest entry is overwritten, mirroring a hardware
    ring; overwrites are counted so experiments can check the sizing rule
    holds. *)

type t

val create : capacity:int -> t
(** [capacity >= 1]. *)

val capacity_for : bw:Rate.t -> rtt:Sim_time.t -> mtu:int -> factor:float -> int
(** [ceil (BW * RTT * F / MTU)], at least 1 — the sizing rule of §4. *)

val default_factor : float
(** F = 1.5, the paper's Table 1 value and every fabric's default. *)

val push : t -> Psn.t -> unit
(** Append at tail; overwrites the head slot when full. *)

val pop : t -> Psn.t option
(** Remove from head (oldest). *)

val pop_until_greater : t -> Psn.t -> int
(** [pop_until_greater q epsn] dequeues entries (discarding them) until it
    finds the first PSN circularly greater than [epsn]; that entry is also
    consumed and returned as an int ({!Psn.to_int}).  [-1] (underflow) if
    the queue drains first.  Allocates nothing. *)

val contains : t -> Psn.t -> bool
(** Linear scan of the live entries. *)

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool
val overwrites : t -> int
(** How many entries were lost to ring overwrite since creation. *)

val clear : t -> unit
val to_list : t -> Psn.t list
(** Head (oldest) first; for tests and debugging. *)
