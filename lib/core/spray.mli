(** PSN-based packet spraying (Section 3.2).

    With [N] equal-cost paths indexed [0 .. N-1] and a per-flow ECMP base
    path [P_base], packet [i] of the flow is deterministically assigned to

    {v Path_i = (PSN_i mod N + P_base) mod N          (Eq. 1) v}

    which distributes packets uniformly and — crucially — lets anyone who
    knows [N] decide whether two PSNs of the same flow travelled the same
    path using only the PSNs:

    {v same path  <=>  tPSN mod N = ePSN mod N        (Eq. 3) v}

    Note on wrap-around: [PSN mod N] is continuous across the 24-bit PSN
    wrap only when [N] divides [2^24], i.e. when [N] is a power of two —
    which matches real fabrics (the paper's examples use N = 4 and
    N = 256).  {!val:path_for_psn} accepts any [N]; deployments should use
    powers of two. *)

val path_for_psn : psn:Psn.t -> base:int -> paths:int -> int
(** Eq. 1.  [base] is reduced mod [paths]; [paths > 0]. *)

val same_path : a:Psn.t -> b:Psn.t -> paths:int -> bool
(** Eq. 3 (the [base] cancels out). *)

val nack_is_valid : tpsn:Psn.t -> epsn:Psn.t -> paths:int -> bool
(** A NACK is valid — the expected packet is provably lost — iff the OOO
    packet that triggered it travelled the expected packet's path. *)

val base_for_flow : Flow_id.t -> sport:int -> paths:int -> int
(** The flow's ECMP base path index, as the fabric's hash would compute
    it (consistent with [Ecmp_hash.flow_hash]). *)
