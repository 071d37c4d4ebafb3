(** The responder-side reliable-transport state machine of a commodity
    RNIC (Section 2.2), in three generations:

    - [Sr] — NIC-SR (CX-6/CX-7/BF-3 class): out-of-order packets are
      accepted into a bitmap-tracked buffer; a packet with PSN above the
      expected PSN (ePSN) triggers {e at most one} NACK per distinct ePSN
      value, carrying only the ePSN; the ePSN advances over the bitmap on
      in-order arrival.

    - [Gbn] — Go-Back-N (CX-4/CX-5 class): out-of-order packets are
      dropped, then NACKed (once per ePSN).

    - [Ideal] — an oracle receiver that accepts out-of-order arrivals and
      never NACKs; the upper-bound transport of Fig. 1d.

    Each data arrival yields at most one control packet, which
    {!on_data} returns rather than sends: the caller (the RNIC) builds
    it while the arriving packet is still in hand.  Both kinds carry
    {!epsn} as it stands on return.

    The module works on monotonic (unwrapped) sequence numbers; the NIC
    truncates to 24-bit PSNs at the wire and unwraps on reception. *)

type mode = Sr | Gbn | Ideal

type reply =
  | No_reply
  | Ack  (** Cumulative acknowledgement: every sequence below [epsn] held. *)
  | Nack  (** The first NACK for this [epsn]. *)

type t

val create : mode:mode -> ack_coalesce:int -> t
(** [ack_coalesce >= 1]: reply with the cumulative ACK only after that
    many in-order advances (a message-final packet always flushes it). *)

val on_data : t -> seq:int -> payload:int -> last_of_msg:bool -> reply
(** Every state change of the arrival happens before it returns; the
    reply is its last effect. *)

val epsn : t -> int

val delivered_bytes : t -> int
(** Payload bytes placed into application memory, each sequence counted
    once. *)

val duplicate_packets : t -> int

val ooo_dropped : t -> int
(** GBN only. *)

val ooo_arrivals : t -> int
(** Data packets that arrived with [seq > ePSN], in any mode — the
    wire-level reordering count the LB-scheme arena gates on. *)

val nacks_sent : t -> int
val acks_sent : t -> int

val ooo_buffered : t -> int
(** Currently held out-of-order sequences. *)
