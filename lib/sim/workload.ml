let cross_rack_groups (ls : Leaf_spine.t) =
  let n_leaves = Array.length ls.Leaf_spine.leaves in
  Array.init ls.Leaf_spine.hosts_per_leaf (fun g ->
      Array.init n_leaves (fun leaf -> Leaf_spine.host ls ~leaf ~index:g))

let motivation_groups (ls : Leaf_spine.t) =
  let n_leaves = Array.length ls.Leaf_spine.leaves in
  let hpl = ls.Leaf_spine.hosts_per_leaf in
  if n_leaves <> 2 then
    invalid_arg "Workload.motivation_groups: expects the 2-leaf fabric";
  (* Group parity by host index; ring order alternates leaves so every
     hop crosses the spine tier: h0@leaf0 -> h0@leaf1 -> h2@leaf0 -> ... *)
  let group parity =
    let members = ref [] in
    let idx = ref parity in
    while !idx < hpl do
      members :=
        Leaf_spine.host ls ~leaf:1 ~index:!idx
        :: Leaf_spine.host ls ~leaf:0 ~index:!idx
        :: !members;
      idx := !idx + 2
    done;
    Array.of_list (List.rev !members)
  in
  [| group 0; group 1 |]

let motivation_rings net ~bytes ~on_complete =
  let qps = ref [] in
  Array.iter
    (fun members ->
      let n = Array.length members in
      Array.iteri
        (fun i src ->
          let qp = Network.connect net ~src ~dst:members.((i + 1) mod n) in
          Rnic.post_send qp ~bytes ~on_complete:(on_complete qp);
          qps := qp :: !qps)
        members)
    (motivation_groups (Network.fabric net));
  List.rev !qps

type group_run = {
  members : int array;
  runner : Runner.t;
  qps : Rnic.qp list;
}

let launch_group ~net ~members ~schedule ~on_complete ~group =
  (* One QP per ordered pair the schedule ever uses. *)
  let pairs = Hashtbl.create 16 in
  List.iter
    (List.iter (fun { Schedule.src; dst; _ } ->
         if not (Hashtbl.mem pairs (src, dst)) then
           Hashtbl.replace pairs (src, dst)
             (Network.connect net ~src:members.(src) ~dst:members.(dst))))
    schedule;
  let post ~src ~dst ~bytes ~on_complete =
    let qp = Hashtbl.find pairs (src, dst) in
    Rnic.post_send qp ~bytes ~on_complete
  in
  let runner =
    Runner.start ~schedule ~post ~on_complete:(fun time ->
        on_complete ~group time)
  in
  {
    members;
    runner;
    qps = Hashtbl.fold (fun _ qp acc -> qp :: acc) pairs [];
  }

let permutation_pairs_array (ls : Leaf_spine.t) ~rng =
  let hosts = Array.copy ls.Leaf_spine.hosts in
  let ok perm =
    Array.for_all2
      (fun a b ->
        Leaf_spine.leaf_index_of_host ls a
        <> Leaf_spine.leaf_index_of_host ls b)
      hosts perm
  in
  let perm = Array.copy hosts in
  let attempts = ref 0 in
  Rng.shuffle_in_place rng perm;
  while (not (ok perm)) && !attempts < 1000 do
    Rng.shuffle_in_place rng perm;
    incr attempts
  done;
  if not (ok perm) then
    (* Fall back to a rotation by one leaf, always cross-rack. *)
    Array.mapi
      (fun i h ->
        (h, hosts.((i + ls.Leaf_spine.hosts_per_leaf) mod Array.length hosts)))
      hosts
  else Array.map2 (fun a b -> (a, b)) hosts perm
