(** A commodity RNIC: queue pairs multiplexed onto one host link.

    The NIC owns the sending side ({!Sender.t} per QP, DCQCN-paced) and
    the receiving side ({!Receiver.t} per remote QP, plus ECN-triggered
    CNP generation), and dispatches arriving packets to the right one.
    Each QP lives in one dense array per side, indexed by its interned
    conn id ({!Flow_id.intern}).  On a data arrival the NIC sends the
    ACK or NACK that {!Receiver.on_data} returns, with the arrival's
    entropy and CE mark echoed on it.

    Transport generations:
    - [`Sr] — current commodity RNICs (NIC-SR reliable transport with
      out-of-order reception); {e the} target of Themis.
    - [`Gbn] — previous-generation RNICs (CX-4/5).
    - [`Ideal] — never NACKs, never slow-starts; the upper bound of
      Fig. 1d. *)

type transport = [ `Sr | `Gbn | `Ideal ]

type config = {
  transport : transport;
  cnp_interval : Sim_time.t;
      (** Receiver-side minimum gap between CNPs of one QP. *)
  cc : Dcqcn.config;
  line_rate : Rate.t;
}
(** The transport constants are the same on every NIC: a 512-packet
    window, a 1 ms RTO, ACKs coalesced 4:1 and {!mtu}-byte segments. *)

val mtu : int
(** 1500 B of payload per data packet. *)

val default_config : line_rate:Rate.t -> config
(** NIC-SR, CNP interval 50 us, {!Dcqcn.default}. *)

type t
type qp

val create : engine:Engine.t -> node:int -> config:config -> t

val set_port : t -> Port.t -> unit
(** The NIC's egress towards its ToR (wiring phase). *)

val node : t -> int

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
(** The send contexts of this NIC's QPs, in conn-id order. *)

val data_packets_received : t -> int
(** Every data packet the host link delivered to this NIC, including
    duplicates and out-of-order arrivals — the receive-side term of the
    fuzz harness's packet-conservation oracle. *)

val receiver : t -> conn:Flow_id.t -> Receiver.t option
(** The receive context this NIC hosts for [conn], for end-of-run
    invariant checks (gapless ePSN, empty OOO buffer).  Found by the
    current interned id, which it never assigns
    ({!Flow_id.lookup_interned}): once a later fabric build has reset
    the interner, it may answer [None]. *)

val ooo_arrivals : t -> int
(** Sum of {!Receiver.ooo_arrivals} over every receive context on this
    NIC — the reordering count the LB-scheme arena gates on. *)
