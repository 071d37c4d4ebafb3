(** A simulated 3-tier fat-tree fabric with Themis in sport-rewrite mode —
    the multi-tier deployment of Section 3.2.

    In a fat tree the source ToR cannot pick the whole path by selecting
    an egress port, so Themis-S rewrites the UDP source port through the
    offline {!Path_map}; each switch tier then consumes its own bit
    window of the (sport-linear) ECMP hash:

    - edge (ToR) uplinks: hash bits [0, b)   where b = log2(k/2);
    - aggregation uplinks: hash bits [b, 2b).

    One rewrite therefore steers both upward hops, realising all
    (k/2)^2 inter-pod equal-cost paths, one per PSN residue (Eq. 1), and
    the destination ToR validates NACKs with N = (k/2)^2 exactly as in
    the 2-tier case.

    For intra-pod cross-ToR flows only the low window matters; distinct
    residues can then share a path, so Themis-D may block a valid NACK —
    compensation or the sender timeout still recovers the loss (safety,
    not liveness, is residue-exact).  This mirrors the paper's focus on
    the inter-pod case. *)

type params = {
  k : int;  (** Switch radix; [k/2] must be a power of two (k = 4, 8, 16...). *)
  bw : Rate.t;  (** Every link, host and fabric. *)
  link_delay : Sim_time.t;
  nic : Rnic.config;
  scheme : Network.scheme;
      (** [Themis _] puts sport-rewrite Themis on every edge switch (and
          ECMP below it, since sport-rewrite steering requires hash-based
          next-hop choice); any other scheme is its
          {!Network.lb_of_scheme} policy at every tier. *)
  per_port_cap : int;
      (** Per-port share of each switch's 64 MB shared buffer
          (default {!Switch.default_per_port_cap}). *)
  queue_factor : float;
  ft_seed : int;
}

val default_params : ?k:int -> themis:bool -> unit -> params
(** k = 4 (16 hosts) at 100 Gbps, 1 us links; full Themis or ECMP. *)

type t

val build : params -> t

val core : t -> Fabric_core.t
(** The topology-independent part: switches, NICs, ports, Themis. *)

val engine : t -> Engine.t
val fat_tree : t -> Fat_tree.t
val n_paths : t -> int
(** [(k/2)^2]. *)

val nic : t -> host:int -> Rnic.t
val switch : t -> node:int -> Switch.t
val connect : t -> src:int -> dst:int -> Rnic.qp
val run : ?until:Sim_time.t -> t -> unit
val total_retx_packets : t -> int
val total_nacks_delivered : t -> int
val themis_totals : t -> Network.themis_totals option
val sprayed_packets : t -> int
(** Data packets whose sport Themis-S rewrote (across all edges). *)
