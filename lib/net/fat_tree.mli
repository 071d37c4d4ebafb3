(** Three-tier k-ary fat-tree generator (Al-Fares et al., SIGCOMM'08).

    A k-ary fat tree has [k] pods; each pod holds [k/2] edge (ToR) and
    [k/2] aggregation switches; [(k/2)^2] core switches join the pods;
    [k^3/4] hosts total.  Between hosts in different pods there are
    [(k/2)^2] equal-cost paths; within a pod (different ToRs) there are
    [k/2].  This is the fabric of the paper's Section 4 worked example
    (k = 32: 512 ToR, 512 agg ("spine"), 256 core, 8192 hosts, 256 paths).

    [k] must be even and positive. *)

type t = {
  topo : Topology.t;
  k : int;
  hosts : int array;
  edges : int array;  (** ToRs: pod [p], position [e] at index [p*(k/2)+e]. *)
  aggs : int array;
  cores : int array;
}

val build : k:int -> bw:Rate.t -> link_delay:Sim_time.t -> t
(** Every link, host and fabric, runs at [bw]. *)

val tor_of_host : t -> int -> int
val pod_of_host : t -> int -> int

val inter_pod_paths : t -> int
(** [(k/2)^2]. *)

val intra_pod_paths : t -> int
(** [k/2]. *)
