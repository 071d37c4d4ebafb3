(** A commodity RNIC: queue pairs multiplexed onto one host link.

    The NIC owns the sending side ({!Sender.t} per QP, DCQCN-paced) and
    the receiving side ({!Receiver.t} per remote QP, plus ECN-triggered
    CNP generation), and dispatches arriving packets to the right one.

    Transport generations:
    - [`Sr] — current commodity RNICs (NIC-SR reliable transport with
      out-of-order reception); {e the} target of Themis.
    - [`Gbn] — previous-generation RNICs (CX-4/5).
    - [`Ideal] — never NACKs, never slow-starts; the upper bound of
      Fig. 1d. *)

type transport = [ `Sr | `Gbn | `Ideal ]

type config = {
  mtu : int;
  transport : transport;
  window : int;
  rto : Sim_time.t;
  ack_coalesce : int;
  cnp_interval : Sim_time.t;
      (** Receiver-side minimum gap between CNPs of one QP. *)
  cc : Dcqcn.config;
  line_rate : Rate.t;
}

val default_config : line_rate:Rate.t -> config
(** MTU 1500 B payload, NIC-SR, window 512, RTO 1 ms, ACKs coalesced 4:1, CNP interval 50 us, {!Dcqcn.default}. *)

type t
type qp

val create : engine:Engine.t -> node:int -> config:config -> t

val set_port : t -> Port.t -> unit
(** The NIC's egress towards its ToR (wiring phase). *)

val node : t -> int
val config : t -> config

val receive : t -> Packet.t -> unit
(** Entry point for packets delivered by the host link. *)

val connect : t -> dst:t -> qp
(** Create a QP to [dst]: allocates the send context here and the receive
    context there.  The QP number is the next one of this NIC's counter
    (1, 2, ...), and the UDP source port a deterministic per-connection
    entropy value. *)

val post_send : qp -> bytes:int -> on_complete:(Sim_time.t -> unit) -> unit

val qp_conn : qp -> Flow_id.t
val qp_rate : qp -> Rate.t
val qp_sender : qp -> Sender.t

val set_on_data_tx : t -> (Packet.t -> unit) -> unit
(** Observation hook invoked for every data packet the NIC puts on the
    wire (fresh and retransmitted) — the probe behind Figs. 1b/1c. *)

(** NIC-wide counters (sums over QPs). *)

val data_packets_sent : t -> int
val retx_packets_sent : t -> int
val nacks_received : t -> int
val nacks_sent : t -> int
val cnps_sent : t -> int
val delivered_bytes : t -> int
val senders : t -> Sender.t list

val data_packets_received : t -> int
(** Every data packet the host link delivered to this NIC, including
    duplicates and out-of-order arrivals — the receive-side term of the
    fuzz harness's packet-conservation oracle. *)

val receivers : t -> (Flow_id.t * Receiver.t) list
(** Receive contexts hosted on this NIC (one per remote QP), for
    end-of-run invariant checks (gapless ePSN, empty OOO buffer). *)

val receiver : t -> conn:Flow_id.t -> Receiver.t option

val ooo_arrivals : t -> int
(** Sum of {!Receiver.ooo_arrivals} over every receive context on this
    NIC — the reordering count the LB-scheme arena gates on. *)
