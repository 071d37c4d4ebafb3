(** An egress port: FIFOs of packets being serialized onto a directed link.

    One [Port.t] models one direction of a full-duplex link.  Control
    packets (ACK / NACK / CNP) ride a strict-priority lane over
    data, as deployed RoCE fabrics assign acknowledgements a dedicated
    traffic class; this bounds the last-hop control RTT that sizes the
    Themis-D PSN queue.  Within a lane ordering is FIFO.  The transmitter
    serializes one packet at a time at the link bandwidth; each serialized
    packet is delivered to the far end after the propagation delay
    (multiple packets may be in flight concurrently, as on a real wire).

    Admission control (buffer limits, ECN marking) is the caller's job.
    [enqueue] drops only on a down link, or, on an up link, the next [n]
    data packets after {!inject_drops}[ n]; it never drops for lack of
    buffer. *)

type t

val create :
  engine:Engine.t ->
  bandwidth:Rate.t ->
  delay:Sim_time.t ->
  label:string ->
  t

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Must be called before the first enqueue (network wiring phase). *)

val deliver_fn : t -> Packet.t -> unit
(** The current delivery callback.  Fault-injection layers capture it to
    wrap delivery with loss / duplication / delay (see [Fuzz_fault]). *)

val set_on_dequeue : t -> (Packet.t -> unit) -> unit
(** Hook fired when a packet leaves a FIFO and starts serializing.  Used
    for shared-buffer release and for Themis-D's "packet leaves the ToR"
    observation point. *)

val set_jitter : t -> rng:Rng.t -> max:Sim_time.t -> unit
(** Add uniform random extra propagation delay in [[0, max]] per packet —
    models RTT fluctuation on the last hop (the reason Section 4 sizes
    the Themis-D ring with an expansion factor F > 1).  Note that jitter
    can reorder packets on a single link. *)

val set_on_discard : t -> (Packet.t -> unit) -> unit
(** Hook fired for packets discarded without transmission (enqueue on a
    failed link, or queue flush when the link goes down). *)

val delay : t -> Sim_time.t
(** Propagation delay of the link direction this port serializes onto. *)

val enqueue : t -> Packet.t -> unit

val inject_drops : t -> int -> unit
(** Fault injection: silently discard the next [n] data packets enqueued
    on this port (counted in [dropped_packets]).  Control packets are
    unaffected. *)

val queue_bytes : t -> int
(** Data-lane bytes waiting (not counting the packet currently
    serializing) — the quantity ECN marking and adaptive routing look
    at. *)

val ctrl_queue_bytes : t -> int
val queue_packets : t -> int
val busy : t -> bool

val set_up : t -> bool -> unit
(** Link failure: while down, queued packets are discarded and future
    enqueues are dropped (counted, and reported to [on_discard]). *)

val is_up : t -> bool

val tx_packets : t -> int
val tx_bytes : t -> int
val dropped_packets : t -> int

val dropped_data_packets : t -> int
(** Data-only subset of [dropped_packets] — the term the fuzz harness's
    packet-conservation oracle sums (control losses are recovered by
    retransmission and deliberately excluded). *)

val bandwidth : t -> Rate.t

val set_bandwidth : t -> Rate.t -> unit
(** Derate (or restore) the link rate — the asymmetric-link-speed
    scenarios of the LB arena.  Applies from the next packet serialized. *)

val label : t -> string
