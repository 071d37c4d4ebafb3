(** Instantiates a complete simulated RDMA network: a leaf–spine fabric,
    one switch model per switch node, one RNIC per host, the links between
    them, and (for the Themis scheme) the middleware on every ToR. *)

type scheme =
  | Ecmp
  | Adaptive  (** Per-packet adaptive routing — the AR baseline of §5. *)
  | Random_spray
  | Psn_spray_only
      (** PSN-based spraying with no NACK filtering (ablation). *)
  | Themis of { compensation : bool }
      (** Themis-S + Themis-D on every ToR (full system when
          [compensation]). *)
  | Reps  (** Recycled entropy spraying ({!Lb_policy.Reps}). *)
  | Prime  (** Multi-part entropy ({!Lb_policy.Prime}). *)
  | Sprinklers
      (** Reordering-free variable-size striping ({!Lb_policy.Sprinklers}). *)
  | Spritz  (** Path-aware weighted spraying ({!Lb_policy.Spritz}). *)

val scheme_to_string : scheme -> string
val scheme_of_string : string -> (scheme, string) result

type params = {
  fabric : Leaf_spine.params;
  scheme : scheme;
  nic : Rnic.config;
  per_port_cap : int;
      (** Per-port share of each switch's 64 MB shared buffer
          ({!Switch.default_config}). *)
  queue_factor : float;  (** Themis-D ring sizing factor F. *)
  last_hop_jitter : Sim_time.t;
      (** Uniform extra delay in [[0, jitter]] on every host -> ToR packet
          (ACKs, NACKs, CNPs and host data entering the fabric): the RTT
          fluctuation Section 4's expansion factor F provisions for. *)
  seed : int;
  telemetry : bool;
      (** Install a fresh global {!Telemetry} context in {!build} and run a
          periodic {!Sampler} over port queues and QP in-flight bytes. *)
  telemetry_interval : Sim_time.t;  (** Sampler cadence (default 20 us). *)
}

val default_params : fabric:Leaf_spine.params -> scheme:scheme -> params

val last_hop_rtt : params -> Sim_time.t
(** The bound used to size Themis-D rings: two propagation delays plus a
    data and a control serialization time on the host link. *)

type t

val build : params -> t

val core : t -> Fabric_core.t
(** The topology-independent part: switches, NICs, ports, Themis. *)

val lb_of_scheme : scheme -> Lb_policy.t
(** The switch load-balancing policy a scheme runs ([Ecmp] under Themis,
    whose data packets Themis-S steers). *)

val engine : t -> Engine.t

val link_ports_pair : t -> link_id:int -> (Port.t * Port.t) option
(** The directional port pair (A->B, B->A) of a link. *)

val fabric : t -> Leaf_spine.t
val routing : t -> Routing.t
val nic : t -> host:int -> Rnic.t
val switch : t -> node:int -> Switch.t
val tor_switches : t -> Switch.t list

val switches_list : t -> Switch.t list
(** All switches, ascending node id (deterministic sweep order). *)

val iter_ports : t -> (Port.t -> unit) -> unit
(** Every directional port, in ascending link-id order (A->B then B->A). *)

val n_paths : t -> int

val connect : t -> src:int -> dst:int -> Rnic.qp
(** Create a QP between two hosts (node ids) and register the flow with
    the destination ToR's Themis-D (the paper's handshake
    interception). *)

val run : ?until:Sim_time.t -> t -> unit
(** Drive the engine until it drains (all transfers complete and all
    timers parked) or until the horizon. *)

val now : t -> Sim_time.t

val fail_link :
  ?mode:[ `Fallback_ecmp | `Shrink_pathset ] -> t -> link_id:int -> unit
(** Section 6 failure handling: take the link down, flush its ports and
    recompute routing.  Under the Themis scheme, [`Fallback_ecmp] (the
    paper's deployed behaviour, default) disables the middleware on every
    ToR and reverts to ECMP; [`Shrink_pathset] (the paper's future-work
    direction) keeps Themis active but re-sprays over the spines whose
    ToR links all survive. *)

val themis_active : t -> bool

val set_spine_rate : t -> spine:int -> gbps:int -> unit
(** Derate both directions of every leaf<->spine link of the [spine]-th
    spine (index into the fabric's spine array) — the persistently
    congested / asymmetric-link-speed arena scenarios.  Topology and
    routing are untouched: the paths stay up, they just serialize
    slower. *)

val restore_link : t -> link_id:int -> unit
(** Bring a previously failed link back up and reconverge routing.  The
    Themis middleware stays in whatever fallback state {!fail_link} left
    it in (the paper's failure handling is one-way). *)

(** Aggregates across the fabric. *)

type themis_totals = Fabric_core.themis_totals = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  queue_overwrites : int;
}

val themis_totals : t -> themis_totals option

val total_data_packets : t -> int
val total_retx_packets : t -> int
val total_nacks_generated : t -> int  (* by receiver NICs *)
val total_nacks_delivered : t -> int  (* reaching senders *)
val total_cnps : t -> int
val total_buffer_drops : t -> int
val total_ecn_marks : t -> int

val total_ooo_arrivals : t -> int
(** Sum of out-of-order data arrivals over every receive context — the
    reordering metric the arena report and the Sprinklers zero-OOO gate
    read. *)
