(** Themis-Source: PSN-based spraying at the source ToR (Section 3.2).

    Two deployment modes:

    - [Direct_egress] — in a 2-tier Clos the ToR fully determines the path
      by choosing the uplink, so Themis-S simply computes Eq. 1 and the
      switch uses the result as the uplink index.

    - [Sport_rewrite] — in deeper fabrics the ToR rewrites the UDP source
      port through the offline {!Path_map} so that downstream ECMP hashing
      lands the packet on the PSN-determined path.

    Only data packets are sprayed; acknowledgements and CNPs keep the
    flow's base path so the reverse control channel stays ordered. *)

type mode = Direct_egress | Sport_rewrite of Path_map.t

type t

val create : paths:int -> mode:mode -> t
(** [paths] is [N] of Eq. 1 — the number of equal-cost paths between the
    communicating ToR pair. *)

val paths : t -> int
val mode : t -> mode

val set_paths : t -> int -> unit
(** Shrink/regrow the live path count — the Section 6 failure-tolerance
    extension: rather than abandoning spraying entirely when a path dies,
    the ToR re-sprays over the surviving subset.  Must be applied together
    with {!Themis_d.set_paths} on the destination side. *)

val base_path : t -> Packet.t -> int
(** The flow's ECMP base path index [P_base] (from the packet's connection
    identity and entropy field). *)

val egress_index : t -> Packet.t -> int
(** [Direct_egress] mode: the Eq. 1 path index (in [[0, paths)]) for data
    packets, [-1] ("no choice") for control packets (caller falls back to
    ECMP).  In [Sport_rewrite] mode always [-1].  An [int] rather than an
    option so the per-packet choice allocates nothing. *)

val apply : t -> Packet.t -> unit
(** [Sport_rewrite] mode: mutate the packet's UDP source port for data
    packets (no-op otherwise).  Must be applied exactly once, at the
    source ToR. *)

val sprayed_packets : t -> int
(** Data packets that have been assigned a path by this instance. *)
