(** The state every simulated fabric shares, whatever its topology: the
    engine, one switch per switch node, one RNIC per host, one {!Port}
    per link direction, and the Themis middleware on the ToRs.
    {!Network} (leaf–spine) and {!Fat_tree_net} (3-tier fat tree) build
    their topology onto one of these; runners that do not care which
    topology they drive (the fuzz harness) work on it directly.

    Building a fabric is the run boundary: {!create} resets the
    process-global state that can steer or label a run, so a run is a
    pure function of its inputs whatever was built before it, and
    serial and forked campaign jobs agree byte for byte. *)

type themis_totals = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  queue_overwrites : int;
}

type t

val last_hop_rtt : bw:Rate.t -> link_delay:Sim_time.t -> mtu:int -> Sim_time.t
(** Two propagation delays plus a data and a control serialization time
    on the host link: the RTT bound Themis-D rings are sized from. *)

val create :
  engine:Engine.t ->
  topo:Topology.t ->
  routing:Routing.t ->
  nics:Rnic.t array ->
  tor_of_host:(int -> int) ->
  ?sampler:Sampler.t ->
  unit ->
  t
(** A fabric with no switches and no ports yet; first resets the packet
    uid counter, the {!Flow_id} interner and the {!Lb_state} counters.
    It leaves two things alone: the {!Packet_pool} freelists, because a
    recycled record cannot be told from a fresh one, and the telemetry
    context, which observes and never steers and so belongs to whoever
    enabled it.  [nics] is indexed by host node id.  [sampler] gets a
    probe per port ({!wire}) and per QP ({!connect}). *)

val add_switch : t -> rng:Rng.t -> node:int -> Switch.config -> unit
(** Create the switch of [node], seeded from the next split of [rng]:
    switch creation order is RNG split order. *)

val install_themis :
  t ->
  tors:int array ->
  paths:int ->
  mode:Themis_s.mode ->
  compensation:bool ->
  bw:Rate.t ->
  link_delay:Sim_time.t ->
  mtu:int ->
  factor:float ->
  stamped:bool ->
  unit
(** Themis-S and Themis-D on every ToR in [tors], with the Themis-D ring
    sized from the last-hop RTT bound and expansion factor [factor].
    [stamped] gives Themis-D telemetry its ToR id and the engine clock;
    without it events carry node [-1] and time 0, as fat-tree traces
    always have. *)

val wire : ?jitter:Rng.t * Sim_time.t -> t -> unit
(** One {!Port} per link direction, in link-id order: delivery into the
    receiving RNIC or switch, host ports attached to their RNIC, switch
    ports to their switch, PFC upstream lists, then the sampler's port
    probes (and the sampler started).  [jitter = (rng, max)] gives every
    host port a uniform extra delay in [\[0, max\]] from its own split of
    [rng], in link-id order. *)

val engine : t -> Engine.t
val routing : t -> Routing.t
val nic : t -> host:int -> Rnic.t
val switch : t -> node:int -> Switch.t

val nics_list : t -> Rnic.t list
(** All host NICs, ascending host id. *)

val switches_list : t -> Switch.t list
(** All switches, ascending node id (deterministic sweep order). *)

val link_ports_pair : t -> link_id:int -> (Port.t * Port.t) option
(** The directional port pair (A->B, B->A) of a link. *)

val iter_ports : t -> (Port.t -> unit) -> unit
(** Every directional port, in ascending link-id order (A->B then B->A)
    — the hook fault injectors and drop sums use. *)

val connect : t -> src:int -> dst:int -> Rnic.qp
(** Create a QP between two hosts (node ids) and register the flow with
    the destination ToR's Themis-D (the paper's handshake
    interception). *)

val themis_totals : t -> themis_totals option
(** Themis-D counters summed over every ToR of the fabric; [None] when
    none runs Themis. *)

val set_themis_paths : t -> int -> unit
(** Re-spray every Themis-S and Themis-D over [n] paths (the
    shrink-pathset failure mode). *)

val sprayed_packets : t -> int
(** Data packets Themis-S steered (across all ToRs). *)

val sum_nics : t -> (Rnic.t -> int) -> int
val sum_switches : t -> (Switch.t -> int) -> int
