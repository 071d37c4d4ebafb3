(** The switch data plane.

    An output-queued switch: a received packet is matched against the
    routing table, one equal-cost next hop is chosen by the configured
    load-balancing policy, the packet passes shared-buffer admission and
    ECN marking, and is enqueued on the egress {!Port}.

    ToR switches additionally host the Themis middleware:
    - {!Themis_s.t} sprays data packets of locally attached senders
      (direct egress choice in 2-tier fabrics, sport rewriting otherwise);
    - {!Themis_d.t} observes data packets forwarded to locally attached
      receivers and intercepts the NACKs those receivers emit, blocking
      the invalid ones and injecting compensation NACKs.

    The fabric is lossy RoCE: a packet the shared buffer cannot admit is
    dropped (there is no PFC backpressure). *)

type config = {
  lb : Lb_policy.t;
  ecn : Ecn.config option;
  per_port_cap : int;
      (** Per-port share of the shared buffer, bytes.  Every switch has
          a 64 MB shared buffer ([Memory_model.tofino_sram_bytes]). *)
  ecmp_shift : int;
      (** Which bit window of the flow hash this switch's ECMP consumes —
          0 for single-tier fabrics; distinct per tier in fat trees so a
          single sport rewrite steers every hop. *)
}

val default_per_port_cap : int
(** 9 MB. *)

val default_config : bw:Rate.t -> Lb_policy.t -> config
(** {!default_per_port_cap}, ECN scaled to [bw], ECMP shift 0. *)

type t

val create :
  engine:Engine.t ->
  topo:Topology.t ->
  routing:Routing.t ->
  node:int ->
  config:config ->
  rng:Rng.t ->
  t

val node_id : t -> int
val config : t -> config

val attach_port : t -> link_id:int -> peer:int -> Port.t -> unit
(** Register the egress port for one attached link (wiring phase).
    Every link id a routing candidate can name must be attached: the
    forwarding compiler treats a missing port as a wiring bug and
    raises [Invalid_argument] instead of silently dropping packets. *)

val set_themis : t -> s:Themis_s.t option -> d:Themis_d.t option -> unit
val themis_d : t -> Themis_d.t option
val themis_s : t -> Themis_s.t option

val set_lb : t -> Lb_policy.t -> unit
(** Live policy change — used by the link-failure fallback of Section 6
    (Themis disabled, revert to ECMP). *)

val receive : t -> Packet.t -> unit
(** A packet arriving from a link, forwarded within the same call (the
    switch adds no pipeline latency).  NACKs from locally attached
    receivers pass through Themis-D here. *)

val inject : t -> Packet.t -> unit
(** Originate a packet at this switch (Themis-D compensation NACKs);
    skips NACK interception but is otherwise forwarded normally. *)

val port_to : t -> peer:int -> Port.t option

(** Aggregate counters. *)

val rx_packets : t -> int
val forwarded_packets : t -> int
val dropped_buffer : t -> int
val dropped_unreachable : t -> int

val dropped_data_packets : t -> int
(** Data-only subset of buffer + unreachable drops, for the fuzz
    harness's packet-conservation oracle. *)


val ecn_marked : t -> int
val nacks_intercept_blocked : t -> int
val buffer_pool : t -> Buffer_pool.t

(** {2 Compiled-forwarding diagnostics (DESIGN.md §11)} *)

val forward_hash_probes : unit -> int
(** Global count of hashtable probes taken by the forwarding slow path
    (per-destination compiles after create / attach / recompute).  The
    steady-state forward carries no probes — and no counting code — so
    this stays flat once caches are warm; the [fwd] benchmark asserts
    it. *)

val compiled_next_ports : t -> dst:int -> Port.t array
(** The dense candidate-port row for [dst], compiling it first if
    stale or absent — in [Routing.next_hops] order.  Exposed for the
    route-cache invalidation tests; raises like {!Routing.next_hops}
    on a non-host [dst]. *)

val compiled_path_weights : t -> dst:int -> int array
(** The compiled {!Routing.path_weights} row for [dst], aligned with
    {!compiled_next_ports} — the Spritz spraying weights.  Recompiled
    with the port rows on wiring/routing changes, so after a link fails
    and routing recomputes, the weights track the surviving path
    counts. *)

val lb_state : t -> Lb_state.t
(** The switch's per-flow spraying state (REPS entropy cache, PRIME
    adaptive parts, Sprinklers stripes) — exposed for invariant
    tests. *)
