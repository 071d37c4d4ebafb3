(** Shortest-path routing with equal-cost multipath next-hop sets.

    [compute] flattens the topology into a sorted adjacency once and
    snapshots every link's up flag; then, for every destination host, one
    BFS (over up links only, never transiting through other hosts) keeps
    only that destination's distance row.  A node's next hops towards a
    host — the neighbours one hop closer over an up link — are derived
    from the row on demand.  A switch's load-balancing policy then picks
    one member of that set per flow (ECMP) or per packet (spraying /
    adaptive routing).  Link state is read only by {!compute} and
    {!recompute}: flipping a link without [recompute] changes nothing. *)

type t

val compute : Topology.t -> t
(** Build tables for all hosts as destinations. *)

val recompute : t -> unit
(** Rebuild after a link status change.  Bumps {!generation} and drops
    the {!path_count} memo.  The topology's nodes and links are fixed at
    {!compute}; raises [Invalid_argument] if any were added since. *)

val generation : t -> int
(** Incremented on every {!recompute}.  Consumers that compile these
    tables into denser forms (the switch's per-destination port arrays)
    compare generations to invalidate their caches, instead of routing
    registering callbacks into every switch. *)

val next_hops : t -> node:int -> dst:int -> (int * int) array
(** Equal-cost [(peer_node, link_id)] choices at [node] towards host [dst],
    ordered by peer id (link id breaking ties).  Empty if unreachable.
    Raises [Invalid_argument "Routing: destination is not a host"] if
    [dst] is not a host. *)

val next_hop_count : t -> node:int -> dst:int -> int
(** [Array.length (next_hops t ~node ~dst)], without allocating. *)

val next_hop_link : t -> node:int -> dst:int -> int -> int
(** [snd (next_hops t ~node ~dst).(i)], without allocating.  Raises
    [Invalid_argument] unless [0 <= i < next_hop_count t ~node ~dst]. *)

val distance : t -> node:int -> dst:int -> int
(** Hop count to [dst]; [max_int] if unreachable. *)

val path_count : t -> src:int -> dst:int -> int
(** Number of distinct equal-cost shortest paths between two hosts.
    Memoized per [(src, dst)] until the next {!recompute} — it is called
    per flow by Themis-S setup. *)

val path_weights : t -> node:int -> dst:int -> int array
(** Per-next-hop shortest-path multiplicities at [node] towards [dst],
    aligned with {!next_hops} and summing to [path_count ~src:node ~dst].
    Spritz sprays proportionally to these weights so each downstream
    path receives equal expected load even under asymmetric topologies
    (post-failure path-count asymmetry). *)
