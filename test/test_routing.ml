(* Equal-cost shortest-path routing. *)

let motivation () =
  let ls = Leaf_spine.build Leaf_spine.motivation in
  (ls, Routing.compute ls.Leaf_spine.topo)

let test_host_next_hop () =
  let ls, routing = motivation () in
  (* A host's only way out is its ToR. *)
  let hops = Routing.next_hops routing ~node:0 ~dst:5 in
  Alcotest.(check int) "one hop" 1 (Array.length hops);
  Alcotest.(check int) "to tor" (Leaf_spine.tor_of_host ls 0) (fst hops.(0))

let test_tor_fanout () =
  let ls, routing = motivation () in
  let tor0 = ls.Leaf_spine.leaves.(0) in
  (* Cross-rack: all spines are equal-cost. *)
  let hops = Routing.next_hops routing ~node:tor0 ~dst:5 in
  Alcotest.(check int) "four spines" 4 (Array.length hops);
  let peers = Array.to_list (Array.map fst hops) in
  Alcotest.(check (list int)) "sorted by peer" (List.sort compare peers) peers;
  (* Same-rack: direct to the host. *)
  let hops = Routing.next_hops routing ~node:tor0 ~dst:2 in
  Alcotest.(check int) "direct" 1 (Array.length hops);
  Alcotest.(check int) "host" 2 (fst hops.(0))

let test_spine_downhill () =
  let ls, routing = motivation () in
  let spine = ls.Leaf_spine.spines.(0) in
  let hops = Routing.next_hops routing ~node:spine ~dst:5 in
  Alcotest.(check int) "one way down" 1 (Array.length hops);
  Alcotest.(check int) "to dst tor" (Leaf_spine.tor_of_host ls 5) (fst hops.(0))

let test_distance () =
  let ls, routing = motivation () in
  Alcotest.(check int) "self" 0 (Routing.distance routing ~node:5 ~dst:5);
  Alcotest.(check int) "same rack" 2 (Routing.distance routing ~node:0 ~dst:2);
  Alcotest.(check int) "cross rack" 4 (Routing.distance routing ~node:0 ~dst:5);
  Alcotest.(check int) "tor to local host" 1
    (Routing.distance routing ~node:(Leaf_spine.tor_of_host ls 0) ~dst:0)

let test_path_count_leaf_spine () =
  let _, routing = motivation () in
  Alcotest.(check int) "cross rack = spines" 4
    (Routing.path_count routing ~src:0 ~dst:5);
  Alcotest.(check int) "same rack" 1 (Routing.path_count routing ~src:0 ~dst:2);
  Alcotest.(check int) "self" 1 (Routing.path_count routing ~src:0 ~dst:0)

let test_path_count_fat_tree () =
  let ft =
    Fat_tree.build ~k:4 ~bw:(Rate.gbps 100.) ~link_delay:1
  in
  let routing = Routing.compute ft.Fat_tree.topo in
  (* Inter-pod: (k/2)^2 = 4; intra-pod cross-ToR: k/2 = 2. *)
  Alcotest.(check int) "inter-pod" 4 (Routing.path_count routing ~src:0 ~dst:15);
  Alcotest.(check int) "intra-pod" 2 (Routing.path_count routing ~src:0 ~dst:2);
  Alcotest.(check int) "same tor" 1 (Routing.path_count routing ~src:0 ~dst:1)

let test_failure_recompute () =
  let ls, routing = motivation () in
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let link = Option.get (Topology.link_between ls.Leaf_spine.topo tor0 spine0) in
  Topology.set_link_up ls.Leaf_spine.topo ~link_id:link false;
  Routing.recompute routing;
  let hops = Routing.next_hops routing ~node:tor0 ~dst:5 in
  Alcotest.(check int) "three spines left" 3 (Array.length hops);
  Alcotest.(check bool) "spine0 gone" true
    (Array.for_all (fun (p, _) -> p <> spine0) hops);
  Alcotest.(check int) "paths now 3" 3 (Routing.path_count routing ~src:0 ~dst:5);
  Topology.set_link_up ls.Leaf_spine.topo ~link_id:link true;
  Routing.recompute routing;
  Alcotest.(check int) "restored" 4
    (Array.length (Routing.next_hops routing ~node:tor0 ~dst:5))

let test_unreachable () =
  let ls, routing = motivation () in
  (* Cut the destination host's only link. *)
  let tor = Leaf_spine.tor_of_host ls 5 in
  let link = Option.get (Topology.link_between ls.Leaf_spine.topo 5 tor) in
  Topology.set_link_up ls.Leaf_spine.topo ~link_id:link false;
  Routing.recompute routing;
  Alcotest.(check int) "no hops" 0
    (Array.length (Routing.next_hops routing ~node:0 ~dst:5));
  Alcotest.(check int) "infinite distance" max_int
    (Routing.distance routing ~node:0 ~dst:5)

let test_non_host_dst_rejected () =
  let ls, routing = motivation () in
  Alcotest.check_raises "switch dst"
    (Invalid_argument "Routing: destination is not a host") (fun () ->
      ignore (Routing.next_hops routing ~node:0 ~dst:ls.Leaf_spine.leaves.(0)))

let test_hosts_do_not_transit () =
  (* Even if a host had two links, traffic must not route through it;
     check on the standard topology that next hops at one host never point
     to another host. *)
  let ls, routing = motivation () in
  Array.iter
    (fun h ->
      let hops = Routing.next_hops routing ~node:h ~dst:5 in
      Array.iter
        (fun (peer, _) ->
          if h <> 5 then
            Alcotest.(check bool)
              "next hop is a switch" false
              (Topology.is_host ls.Leaf_spine.topo peer))
        hops)
    ls.Leaf_spine.hosts

(* --- Differential oracle ------------------------------------------------

   The list-based tables routing was first written as: one BFS per host
   destination reading live link state, then every node's next hops
   filtered from [Topology.neighbors] and stably sorted by peer.  The
   flat distance rows must reproduce them exactly. *)

type ref_table = { dist : int array; hops : (int * int) array array }

let ref_build_table topo dst =
  let n = Topology.node_count topo in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(dst) <- 0;
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    (* Hosts other than the destination do not forward traffic. *)
    if u = dst || not (Topology.is_host topo u) then
      List.iter
        (fun (peer, link_id) ->
          let l = Topology.link topo link_id in
          if l.Topology.up && dist.(peer) = max_int then begin
            dist.(peer) <- dist.(u) + 1;
            Queue.add peer queue
          end)
        (Topology.neighbors topo u)
  done;
  let hops =
    Array.init n (fun u ->
        if dist.(u) = max_int || u = dst then [||]
        else
          Topology.neighbors topo u
          |> List.filter (fun (peer, link_id) ->
                 (Topology.link topo link_id).Topology.up
                 && dist.(peer) = dist.(u) - 1)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> Array.of_list)
  in
  { dist; hops }

let rec ref_path_count tbl ~dst u =
  if u = dst then 1
  else
    Array.fold_left (fun acc (peer, _) -> acc + ref_path_count tbl ~dst peer) 0
      tbl.hops.(u)

let ref_path_weights tbl ~node ~dst =
  if node = dst then [||]
  else Array.map (fun (peer, _) -> ref_path_count tbl ~dst peer) tbl.hops.(node)

type shape = Ls of int * int * int | Ft of int

let shape_topology = function
  | Ls (n_leaves, n_spines, hosts_per_leaf) ->
      (Leaf_spine.build
         { Leaf_spine.motivation with Leaf_spine.n_leaves; n_spines; hosts_per_leaf })
        .Leaf_spine.topo
  | Ft k ->
      (Fat_tree.build ~k ~bw:(Rate.gbps 100.) ~link_delay:1)
        .Fat_tree.topo

(* The shape's nodes, with its links re-added in a shuffled order, random
   orientation and a few parallel duplicates: the built fabrics add links
   in peer order already, which would hide a missing sort or tie-break. *)
let scrambled shape rs =
  let base = shape_topology shape in
  let topo = Topology.create () in
  for u = 0 to Topology.node_count base - 1 do
    let nd = Topology.node base u in
    ignore (Topology.add_node topo nd.Topology.kind ~label:nd.Topology.label)
  done;
  let links =
    Array.init (Topology.link_count base) (fun l ->
        (Random.State.bits rs, Topology.link base l))
  in
  Array.sort compare links;
  Array.iter
    (fun (_, (l : Topology.link)) ->
      let a, b = if Random.State.bool rs then (l.a, l.b) else (l.b, l.a) in
      let copies = if Random.State.int rs 8 = 0 then 2 else 1 in
      for _ = 1 to copies do
        ignore (Topology.add_link topo a b ~bandwidth:l.bandwidth ~delay:l.delay)
      done)
    links;
  topo

let flip_some topo rs =
  for l = 0 to Topology.link_count topo - 1 do
    if Random.State.int rs 5 = 0 then
      Topology.set_link_up topo ~link_id:l (not (Topology.link topo l).Topology.up)
  done

let pairs = Alcotest.(array (pair int int))

(* Alcotest checks are slow in bulk: only report a mismatch. *)
let same testable what want got =
  if want <> got then Alcotest.check testable what want got

(* Every node towards every host destination, against the reference. *)
let check_against_reference topo routing tables =
  Array.iter
    (fun dst ->
      let tbl = tables.(dst) in
      for node = 0 to Topology.node_count topo - 1 do
        let where = Printf.sprintf "node %d dst %d" node dst in
        same pairs ("next_hops " ^ where) tbl.hops.(node)
          (Routing.next_hops routing ~node ~dst);
        same Alcotest.int ("distance " ^ where) tbl.dist.(node)
          (Routing.distance routing ~node ~dst);
        same Alcotest.int ("path_count " ^ where)
          (ref_path_count tbl ~dst node)
          (Routing.path_count routing ~src:node ~dst);
        same Alcotest.(array int) ("path_weights " ^ where)
          (ref_path_weights tbl ~node ~dst)
          (Routing.path_weights routing ~node ~dst)
      done)
    (Topology.hosts topo)

let reference topo =
  let tables = Array.make (Topology.node_count topo) { dist = [||]; hops = [||] } in
  Array.iter (fun h -> tables.(h) <- ref_build_table topo h) (Topology.hosts topo);
  tables

(* Random fabric, random links down, recompute; then flip more links
   without recomputing, which must change nothing. *)
let prop_matches_reference =
  let shape =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun l s h -> Ls (l, s, h))
              (int_range 1 5) (int_range 1 5) (int_range 1 4) );
          (2, return (Ft 4));
          (1, return (Ft 8));
        ])
  in
  let print (shape, seed) =
    match shape with
    | Ls (l, s, h) -> Printf.sprintf "ls:%d:%d:%d seed %d" l s h seed
    | Ft k -> Printf.sprintf "ft:%d seed %d" k seed
  in
  QCheck.Test.make ~name:"matches reference" ~count:60
    (QCheck.make ~print QCheck.Gen.(pair shape (int_bound 1_000_000)))
    (fun (shape, seed) ->
      let rs = Random.State.make [| seed |] in
      let topo = scrambled shape rs in
      let routing = Routing.compute topo in
      flip_some topo rs;
      Routing.recompute routing;
      let tables = reference topo in
      flip_some topo rs;
      check_against_reference topo routing tables;
      true)

let test_parallel_links () =
  (* Two parallel tor0-spine links: equal-cost, ordered by link id. *)
  let topo = Topology.create () in
  let node kind = Topology.add_node topo kind ~label:"" in
  let h0 = node Topology.Host and h1 = node Topology.Host in
  let tor0 = node Topology.Tor and tor1 = node Topology.Tor in
  let spine = node Topology.Spine in
  let link a b =
    ignore (Topology.add_link topo a b ~bandwidth:(Rate.gbps 100.) ~delay:1)
  in
  link h0 tor0;
  link h1 tor1;
  link spine tor0;
  link tor1 spine;
  link tor0 spine;
  let routing = Routing.compute topo in
  Alcotest.check pairs "both links" [| (spine, 2); (spine, 4) |]
    (Routing.next_hops routing ~node:tor0 ~dst:h1);
  Alcotest.(check int) "two paths" 2 (Routing.path_count routing ~src:h0 ~dst:h1);
  check_against_reference topo routing (reference topo)

let test_flip_without_recompute () =
  let ls, routing = motivation () in
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let before = Routing.next_hops routing ~node:tor0 ~dst:5 in
  let link =
    Option.get
      (Topology.link_between ls.Leaf_spine.topo tor0 ls.Leaf_spine.spines.(0))
  in
  Topology.set_link_up ls.Leaf_spine.topo ~link_id:link false;
  Alcotest.check pairs "unchanged" before (Routing.next_hops routing ~node:tor0 ~dst:5);
  Alcotest.(check int) "count unchanged" (Array.length before)
    (Routing.next_hop_count routing ~node:tor0 ~dst:5);
  Routing.recompute routing;
  Alcotest.(check int) "recompute drops it" (Array.length before - 1)
    (Routing.next_hop_count routing ~node:tor0 ~dst:5)

let test_accessors () =
  let ls, routing = motivation () in
  Array.iter
    (fun node ->
      Array.iter
        (fun dst ->
          let hops = Routing.next_hops routing ~node ~dst in
          Alcotest.(check int) "count" (Array.length hops)
            (Routing.next_hop_count routing ~node ~dst);
          Array.iteri
            (fun i (_, link) ->
              Alcotest.(check int) "link" link
                (Routing.next_hop_link routing ~node ~dst i))
            hops;
          Alcotest.check_raises "past the end"
            (Invalid_argument "Routing.next_hop_link: no such next hop")
            (fun () ->
              ignore
                (Routing.next_hop_link routing ~node ~dst (Array.length hops))))
        ls.Leaf_spine.hosts)
    (Array.init (Topology.node_count ls.Leaf_spine.topo) Fun.id)

let () =
  Alcotest.run "routing"
    [
      ( "next hops",
        [
          Alcotest.test_case "host" `Quick test_host_next_hop;
          Alcotest.test_case "tor fanout" `Quick test_tor_fanout;
          Alcotest.test_case "spine downhill" `Quick test_spine_downhill;
          Alcotest.test_case "no transit through hosts" `Quick test_hosts_do_not_transit;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "path count leaf-spine" `Quick test_path_count_leaf_spine;
          Alcotest.test_case "path count fat-tree" `Quick test_path_count_fat_tree;
        ] );
      ( "failures",
        [
          Alcotest.test_case "recompute" `Quick test_failure_recompute;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "non-host dst" `Quick test_non_host_dst_rejected;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "parallel links" `Quick test_parallel_links;
          Alcotest.test_case "flip, no recompute" `Quick test_flip_without_recompute;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
    ]
