(** Traffic patterns and group construction for the paper's experiments. *)

val cross_rack_groups : Leaf_spine.t -> int array array
(** The Section 5 placement: group [g] contains host index [g] of every
    leaf, so every group member sits under a different ToR and all
    collective traffic crosses the fabric.  Returns [hosts_per_leaf]
    groups of [n_leaves] host node ids. *)

val motivation_rings :
  Network.t -> bytes:int -> on_complete:(Rnic.qp -> Sim_time.t -> unit) ->
  Rnic.qp list
(** The Fig. 1 workload on the motivation fabric: every member of each
    {!motivation_groups} ring posts [bytes] to its successor at time
    zero.  QPs are connected and posted in ring order and returned in
    that order; [on_complete qp t] fires as each send finishes. *)

type group_run = {
  members : int array;
  runner : Runner.t;
  qps : Rnic.qp list;
}

val launch_group :
  net:Network.t ->
  members:int array ->
  schedule:Schedule.t ->
  on_complete:(group:int -> Sim_time.t -> unit) ->
  group:int ->
  group_run
(** Create the QPs a schedule needs between group members (one per ordered
    pair that ever communicates) and start a {!Runner} over them. *)
