(** Simulated packets.

    A packet travels between two host endpoints ([src_node] -> [dst_node]);
    [conn] identifies the QP connection it belongs to, always oriented from
    the data sender to the data receiver regardless of the packet's own
    direction (ACK/NACK/CNP flow backwards).

    [udp_sport] is the flow's entropy field.  ECMP hashes it; Themis-S
    rewrites it per packet to implement PSN-based spraying.  [ecn] is the IP
    ECN codepoint, set to [Ce] by switches when marking.

    Every field (including the inline-record payloads of [kind]) is
    mutable so {!Packet_pool} can recycle records on the simulator hot
    path.  The constructors here always allocate fresh records; code
    outside the data plane (tests, examples) should keep using them and
    never needs to think about pooling.  [pooled] is the pool's
    double-release guard — treat it as private to {!Packet_pool}. *)

type kind =
  | Data of {
      mutable psn : Psn.t;
      mutable payload : int;
      mutable last_of_msg : bool;
    }  (** [payload] bytes of user data carried under [psn]. *)
  | Ack of { mutable psn : Psn.t }
      (** Cumulative: every PSN strictly below [psn] has been received.
          [psn] is the receiver's current ePSN. *)
  | Nack of { mutable epsn : Psn.t }
      (** Out-of-sequence NACK carrying only the expected PSN (the
          commodity-RNIC behaviour of Section 2.2). *)
  | Cnp  (** DCQCN congestion notification. *)
  | Pause of { stop : bool }  (** PFC pause/resume (hop-local). *)

type t = {
  mutable uid : int;
      (** Unique per simulated packet; retransmissions get fresh ids. *)
  mutable conn : Flow_id.t;
  mutable conn_id : int;
      (** [conn]'s dense interned id ({!Flow_id.intern}), carried so
          per-flow dispatch on the hot path indexes arrays instead of
          hashing the triple per packet. *)
  mutable src_node : int;
  mutable dst_node : int;
  mutable kind : kind;
  mutable size : int;  (** Total bytes on the wire. *)
  mutable udp_sport : int;
  mutable ecn : Headers.ecn;
  mutable retransmission : bool;
  mutable birth : Sim_time.t;
  mutable pooled : bool;  (** Private to {!Packet_pool}. *)
  mutable entropy_echo : int;
      (** On ACK/NACK: the [udp_sport] entropy the acknowledged data
          packet carried, echoed back so the source ToR's REPS/PRIME
          state learns which entropies map to clean paths.  [-1] when
          absent (data packets, legacy control paths). *)
  mutable ecn_echo : bool;
      (** On ACK/NACK: whether the echoed data packet arrived CE-marked. *)
}

val data :
  conn:Flow_id.t ->
  ?conn_id:int ->
  sport:int ->
  psn:Psn.t ->
  payload:int ->
  last_of_msg:bool ->
  ?retransmission:bool ->
  birth:Sim_time.t ->
  unit ->
  t

val make_data :
  conn:Flow_id.t ->
  conn_id:int ->
  sport:int ->
  psn:Psn.t ->
  payload:int ->
  last_of_msg:bool ->
  retransmission:bool ->
  birth:Sim_time.t ->
  t
(** {!data} with every argument required, so nothing is boxed: the fresh
    path of {!Packet_pool.data}. *)

val make_control :
  conn:Flow_id.t -> conn_id:int -> sport:int -> kind:kind -> size:int ->
  birth:Sim_time.t -> t
(** A control packet of [kind] and wire [size] from the interned
    [conn_id], without the lookup {!ack}/{!nack}/{!cnp} make: the fresh
    path of {!Packet_pool}'s control constructors. *)

val ack : conn:Flow_id.t -> sport:int -> psn:Psn.t -> birth:Sim_time.t -> t
(** Travels dst -> src of [conn]. *)

val nack : conn:Flow_id.t -> sport:int -> epsn:Psn.t -> birth:Sim_time.t -> t
val cnp : conn:Flow_id.t -> sport:int -> birth:Sim_time.t -> t

val is_data : t -> bool
val is_nack : t -> bool

val payload_bytes : t -> int
(** 0 for control packets. *)

val pp : Format.formatter -> t -> unit

val fresh_uid : unit -> int
(** Next packet uid; used by {!Packet_pool} so recycled records are
    indistinguishable from fresh ones. *)

val reset_uid_counter : unit -> unit
(** Restart the uids; every fabric build calls it
    ([Fabric_core.create]). *)
