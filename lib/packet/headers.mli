(** Wire-format accounting for RoCEv2 frames.

    The simulator does not serialize bits; it only needs byte counts that
    match what a RoCEv2 deployment puts on the wire, so that link
    utilization and serialization delays are realistic. *)

val ethernet_bytes : int
(** Ethernet header + FCS (18). *)

val ipv4_bytes : int
(** 20. *)

val udp_bytes : int
(** 8. *)

val bth_bytes : int
(** RoCEv2 Base Transport Header (12). *)

val aeth_bytes : int
(** ACK Extension Header (4), present on ACK/NACK. *)

val icrc_bytes : int
(** Invariant CRC (4). *)

val data_overhead : int
(** Per-data-packet header bytes: Eth + IP + UDP + BTH + ICRC = 62. *)

val ack_bytes : int
(** Total size of an ACK/NACK frame (headers + AETH). *)

val cnp_bytes : int
(** Total size of a Congestion Notification Packet. *)

val roce_dst_port : int
(** UDP destination port for RoCEv2 (4791). *)

type ecn = Not_ect | Ect | Ce
(** IP ECN codepoint (Ect covers ECT(0)/ECT(1)). *)

val pp_ecn : Format.formatter -> ecn -> unit
