(* Topology graph, leaf-spine and fat-tree generators. *)

let test_basic_graph () =
  let topo = Topology.create () in
  let a = Topology.add_node topo Topology.Host ~label:"a" in
  let b = Topology.add_node topo Topology.Tor ~label:"b" in
  let l =
    Topology.add_link topo a b ~bandwidth:(Rate.gbps 100.) ~delay:(Sim_time.us 1)
  in
  Alcotest.(check int) "nodes" 2 (Topology.node_count topo);
  Alcotest.(check int) "links" 1 (Topology.link_count topo);
  Alcotest.(check (option int)) "link_between" (Some l) (Topology.link_between topo a b);
  Alcotest.(check (option int)) "symmetric" (Some l) (Topology.link_between topo b a);
  Alcotest.(check (option int)) "absent" None (Topology.link_between topo a a);
  Alcotest.(check int) "other_end" b (Topology.other_end topo ~link_id:l a);
  Alcotest.(check int) "other_end rev" a (Topology.other_end topo ~link_id:l b);
  Alcotest.(check bool) "is_host" true (Topology.is_host topo a);
  Alcotest.(check bool) "tor not host" false (Topology.is_host topo b);
  Alcotest.(check (list (pair int int))) "neighbors" [ (b, l) ] (Topology.neighbors topo a)

let test_self_loop_rejected () =
  let topo = Topology.create () in
  let a = Topology.add_node topo Topology.Host ~label:"a" in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_link: self loop")
    (fun () ->
      ignore
        (Topology.add_link topo a a ~bandwidth:(Rate.gbps 1.) ~delay:1))

let test_link_updown () =
  let topo = Topology.create () in
  let a = Topology.add_node topo Topology.Host ~label:"a" in
  let b = Topology.add_node topo Topology.Tor ~label:"b" in
  let l = Topology.add_link topo a b ~bandwidth:(Rate.gbps 1.) ~delay:1 in
  Alcotest.(check bool) "up" true (Topology.link topo l).Topology.up;
  Topology.set_link_up topo ~link_id:l false;
  Alcotest.(check bool) "down" false (Topology.link topo l).Topology.up

let test_leaf_spine_shape () =
  let ls = Leaf_spine.build Leaf_spine.motivation in
  Alcotest.(check int) "hosts" 8 (Array.length ls.Leaf_spine.hosts);
  Alcotest.(check int) "leaves" 2 (Array.length ls.Leaf_spine.leaves);
  Alcotest.(check int) "spines" 4 (Array.length ls.Leaf_spine.spines);
  (* 8 host links + 2*4 fabric links. *)
  Alcotest.(check int) "links" 16 (Topology.link_count ls.Leaf_spine.topo);
  Alcotest.(check int) "n_paths" 4 (Leaf_spine.n_paths ls);
  (* Host ids are dense from 0; host h sits under leaf h/hpl. *)
  Alcotest.(check int) "tor of host 0" ls.Leaf_spine.leaves.(0)
    (Leaf_spine.tor_of_host ls 0);
  Alcotest.(check int) "tor of host 5" ls.Leaf_spine.leaves.(1)
    (Leaf_spine.tor_of_host ls 5);
  Alcotest.(check int) "host accessor" 6 (Leaf_spine.host ls ~leaf:1 ~index:2);
  Alcotest.(check int) "leaf index" 1 (Leaf_spine.leaf_index_of_host ls 6);
  Alcotest.(check bool) "is_tor" true (Leaf_spine.is_tor ls ls.Leaf_spine.leaves.(0));
  Alcotest.(check bool) "host not tor" false (Leaf_spine.is_tor ls 0)

let test_leaf_spine_paper_eval () =
  let ls = Leaf_spine.build Leaf_spine.paper_eval in
  Alcotest.(check int) "256 hosts" 256 (Array.length ls.Leaf_spine.hosts);
  Alcotest.(check int) "16 paths" 16 (Leaf_spine.n_paths ls);
  Alcotest.(check int) "links" (256 + (16 * 16))
    (Topology.link_count ls.Leaf_spine.topo)

let test_leaf_spine_invalid () =
  Alcotest.check_raises "zero leaves"
    (Invalid_argument "Leaf_spine.build: all counts must be positive")
    (fun () ->
      ignore (Leaf_spine.build { Leaf_spine.motivation with Leaf_spine.n_leaves = 0 }))

let test_fat_tree_shape () =
  let ft =
    Fat_tree.build ~k:4 ~bw:(Rate.gbps 100.) ~link_delay:(Sim_time.us 1)
  in
  Alcotest.(check int) "hosts" 16 (Array.length ft.Fat_tree.hosts);
  Alcotest.(check int) "edges" 8 (Array.length ft.Fat_tree.edges);
  Alcotest.(check int) "aggs" 8 (Array.length ft.Fat_tree.aggs);
  Alcotest.(check int) "cores" 4 (Array.length ft.Fat_tree.cores);
  (* 16 host links + 4 pods * 4 edge-agg + 4 pods * 4 agg-core. *)
  Alcotest.(check int) "links" (16 + 16 + 16) (Topology.link_count ft.Fat_tree.topo);
  Alcotest.(check int) "inter-pod paths" 4 (Fat_tree.inter_pod_paths ft);
  Alcotest.(check int) "intra-pod paths" 2 (Fat_tree.intra_pod_paths ft);
  Alcotest.(check int) "pod of host 0" 0 (Fat_tree.pod_of_host ft 0);
  Alcotest.(check int) "pod of host 15" 3 (Fat_tree.pod_of_host ft 15);
  Alcotest.(check int) "tor of host 0" ft.Fat_tree.edges.(0) (Fat_tree.tor_of_host ft 0)

let test_fat_tree_section4_example () =
  (* The k = 32 worked example of Section 4: 512 ToR, 512 agg, 256 core,
     8192 hosts, 256 equal-cost inter-pod paths. *)
  let ft =
    Fat_tree.build ~k:32 ~bw:(Rate.gbps 400.) ~link_delay:(Sim_time.us 1)
  in
  Alcotest.(check int) "8192 hosts" 8192 (Array.length ft.Fat_tree.hosts);
  Alcotest.(check int) "512 tors" 512 (Array.length ft.Fat_tree.edges);
  Alcotest.(check int) "512 aggs" 512 (Array.length ft.Fat_tree.aggs);
  Alcotest.(check int) "256 cores" 256 (Array.length ft.Fat_tree.cores);
  Alcotest.(check int) "256 paths" 256 (Fat_tree.inter_pod_paths ft)

let test_fat_tree_invalid () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fat_tree.build: k must be even and positive") (fun () ->
      ignore
        (Fat_tree.build ~k:3 ~bw:(Rate.gbps 1.) ~link_delay:1))

let test_pp_summary () =
  let ls = Leaf_spine.build Leaf_spine.motivation in
  let s = Format.asprintf "%a" Topology.pp_summary ls.Leaf_spine.topo in
  Alcotest.(check bool) "mentions hosts" true (String.length s > 10)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_basic_graph;
          Alcotest.test_case "self loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "link up/down" `Quick test_link_updown;
          Alcotest.test_case "pp" `Quick test_pp_summary;
        ] );
      ( "leaf_spine",
        [
          Alcotest.test_case "motivation shape" `Quick test_leaf_spine_shape;
          Alcotest.test_case "paper eval shape" `Quick test_leaf_spine_paper_eval;
          Alcotest.test_case "invalid" `Quick test_leaf_spine_invalid;
        ] );
      ( "fat_tree",
        [
          Alcotest.test_case "k=4 shape" `Quick test_fat_tree_shape;
          Alcotest.test_case "section 4 example" `Quick test_fat_tree_section4_example;
          Alcotest.test_case "invalid" `Quick test_fat_tree_invalid;
        ] );
    ]
