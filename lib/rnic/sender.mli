(** The requester-side transport of a commodity RNIC: hardware rate pacing
    driven by DCQCN, selective-repeat (or go-back-N) retransmission, and
    the NACK reaction of Section 2.2 — on a NACK the RNIC retransmits
    exactly the packet named by the carried ePSN and applies a rate
    "slow start" (delegated to {!Dcqcn}).

    Sequencing is monotonic internally; packets carry the truncated 24-bit
    PSN.  One [Sender.t] is one sending QP. *)

type mode = Sr_retx | Gbn_retx

type config = {
  mtu : int;  (** Payload bytes per full packet. *)
  mode : mode;
  window : int;  (** Max unacknowledged packets in flight. *)
  rto : Sim_time.t;  (** Retransmission timeout. *)
  cc : Dcqcn.config;
}

type t

val create :
  engine:Engine.t ->
  conn:Flow_id.t ->
  sport:int ->
  config:config ->
  line_rate:Rate.t ->
  transmit:(Packet.t -> unit) ->
  t

val post : t -> bytes:int -> on_complete:(Sim_time.t -> unit) -> unit
(** Queue a message of [bytes]; [on_complete] fires when every packet of
    the message has been cumulatively acknowledged. *)

val on_ack : t -> Psn.t -> unit
val on_nack : t -> Psn.t -> unit
val on_cnp : t -> unit

val conn : t -> Flow_id.t

val conn_id : t -> int
(** [Flow_id.intern (conn t)], stored at creation. *)

val sport : t -> int
val rate : t -> Rate.t
val cc : t -> Dcqcn.t

val outstanding : t -> int
(** Packets sent but not yet cumulatively acknowledged. *)

val idle : t -> bool
(** Everything posted has been acknowledged. *)

(** Counters. *)

val data_packets_sent : t -> int
(** Including retransmissions. *)

val retx_packets_sent : t -> int
val nacks_received : t -> int
val cnps_received : t -> int
val timeouts : t -> int
val bytes_completed : t -> int
