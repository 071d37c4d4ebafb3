(* End-to-end Themis on a 3-tier fat tree: the sport-rewrite deployment
   (Section 3.2's PathMap mode). *)

let build ?(k = 4) ~themis () =
  Fat_tree_net.build (Fat_tree_net.default_params ~k ~themis ())

let inter_pod_pair net =
  let ft = Fat_tree_net.fat_tree net in
  let hosts = ft.Fat_tree.hosts in
  let a = hosts.(0) in
  let b = hosts.(Array.length hosts - 1) in
  assert (Fat_tree.pod_of_host ft a <> Fat_tree.pod_of_host ft b);
  (a, b)

let test_inter_pod_flow_completes () =
  let net = build ~themis:true () in
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun t -> done_at := Some t);
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  Alcotest.(check int) "delivered" 1_000_000
    (Rnic.delivered_bytes (Fat_tree_net.nic net ~host:dst));
  Alcotest.(check bool) "sport rewriting happened" true
    (Fat_tree_net.sprayed_packets net > 0)

let test_rewrite_spreads_over_all_paths () =
  (* With (k/2)^2 = 4 inter-pod paths, all aggs of the source pod and all
     cores must carry data. *)
  let net = build ~themis:true () in
  let ft = Fat_tree_net.fat_tree net in
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun _ -> ());
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  let src_pod = Fat_tree.pod_of_host ft src in
  let half = ft.Fat_tree.k / 2 in
  for a = 0 to half - 1 do
    let agg = ft.Fat_tree.aggs.((src_pod * half) + a) in
    Alcotest.(check bool)
      (Printf.sprintf "agg %d used" a)
      true
      (Switch.rx_packets (Fat_tree_net.switch net ~node:agg) > 0)
  done;
  Array.iteri
    (fun i core ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d used" i)
        true
        (Switch.rx_packets (Fat_tree_net.switch net ~node:core) > 0))
    ft.Fat_tree.cores

let test_no_loss_no_spurious_retx () =
  (* The headline invariant carried over to three tiers: spraying without
     loss produces zero NACKs at senders and zero spurious
     retransmissions, even with concurrent reordering flows. *)
  let net = build ~themis:true () in
  let ft = Fat_tree_net.fat_tree net in
  let hosts = ft.Fat_tree.hosts in
  let n = Array.length hosts in
  let completed = ref 0 in
  (* Cross-pod ring: host i -> host (i + n/2) mod n. *)
  let flows = ref 0 in
  Array.iteri
    (fun i src ->
      let dst = hosts.((i + (n / 2)) mod n) in
      if Fat_tree.pod_of_host ft src <> Fat_tree.pod_of_host ft dst then begin
        incr flows;
        let qp = Fat_tree_net.connect net ~src ~dst in
        Rnic.post_send qp ~bytes:500_000 ~on_complete:(fun _ -> incr completed)
      end)
    hosts;
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check int) "all complete" !flows !completed;
  Alcotest.(check int) "no nacks delivered" 0
    (Fat_tree_net.total_nacks_delivered net);
  Alcotest.(check int) "no spurious retx" 0 (Fat_tree_net.total_retx_packets net);
  match Fat_tree_net.themis_totals net with
  | None -> Alcotest.fail "themis stats expected"
  | Some t ->
      Alcotest.(check int) "all NACKs blocked" t.Network.nacks_seen
        t.Network.nacks_blocked

(* Themis-D telemetry on a fat tree is placed like on a leaf-spine: each
   blocked NACK names the edge switch that blocked it, at the engine
   time it was blocked. *)
let test_nack_events_stamped () =
  let ctx = Telemetry.enable () in
  let net = build ~themis:true () in
  let ft = Fat_tree_net.fat_tree net in
  let hosts = ft.Fat_tree.hosts in
  let n = Array.length hosts in
  Array.iteri
    (fun i src ->
      let qp = Fat_tree_net.connect net ~src ~dst:hosts.((i + (n / 2)) mod n) in
      Rnic.post_send qp ~bytes:500_000 ~on_complete:(fun _ -> ()))
    hosts;
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  let blocked =
    List.filter_map
      (fun (time, ev) ->
        match ev with
        | Event.Nack_blocked { node; _ } -> Some (time, node)
        | _ -> None)
      (Telemetry.events ctx)
  in
  Telemetry.disable ();
  Alcotest.(check bool) "some NACKs blocked" true (blocked <> []);
  List.iter
    (fun (time, node) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d is an edge" node)
        true
        (Array.mem node ft.Fat_tree.edges);
      Alcotest.(check bool) "time set" true (time > 0))
    blocked;
  let times = List.map fst blocked in
  Alcotest.(check (list int)) "times non-decreasing" (List.sort compare times)
    times

let test_loss_recovered () =
  let net = build ~themis:true () in
  let ft = Fat_tree_net.fat_tree net in
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  (* Drop packets on the source edge's first agg uplink. *)
  let edge = Fat_tree.tor_of_host ft src in
  let src_pod = Fat_tree.pod_of_host ft src in
  let agg = ft.Fat_tree.aggs.(src_pod * (ft.Fat_tree.k / 2)) in
  let port = Option.get (Switch.port_to (Fat_tree_net.switch net ~node:edge) ~peer:agg) in
  Port.inject_drops port 3;
  let done_at = ref None in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun t -> done_at := Some t);
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes despite loss" true (!done_at <> None);
  Alcotest.(check int) "all bytes" 1_000_000
    (Rnic.delivered_bytes (Fat_tree_net.nic net ~host:dst));
  Alcotest.(check bool) "retransmitted" true
    (Fat_tree_net.total_retx_packets net >= 3)

let test_intra_pod_safe () =
  (* Residue aliasing on intra-pod paths must never break delivery. *)
  let net = build ~themis:true () in
  let ft = Fat_tree_net.fat_tree net in
  let src = ft.Fat_tree.hosts.(0) in
  (* A host under a different edge of the same pod. *)
  let half = ft.Fat_tree.k / 2 in
  let dst = ft.Fat_tree.hosts.(half) in
  assert (Fat_tree.pod_of_host ft src = Fat_tree.pod_of_host ft dst);
  assert (Fat_tree.tor_of_host ft src <> Fat_tree.tor_of_host ft dst);
  let qp = Fat_tree_net.connect net ~src ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:500_000 ~on_complete:(fun t -> done_at := Some t);
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  Alcotest.(check int) "delivered" 500_000
    (Rnic.delivered_bytes (Fat_tree_net.nic net ~host:dst))

let test_plain_ecmp_fat_tree () =
  let net = build ~themis:false () in
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:500_000 ~on_complete:(fun t -> done_at := Some t);
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  Alcotest.(check int) "no themis" 0 (Fat_tree_net.sprayed_packets net);
  Alcotest.(check bool) "no stats" true (Fat_tree_net.themis_totals net = None)

let test_k8_builds () =
  let net = build ~k:8 ~themis:true () in
  Alcotest.(check int) "16 paths" 16 (Fat_tree_net.n_paths net);
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:200_000 ~on_complete:(fun t -> done_at := Some t);
  Fat_tree_net.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes" true (!done_at <> None)

let test_invalid_k () =
  Alcotest.check_raises "k = 6"
    (Invalid_argument "Fat_tree_net.build: k/2 must be a power of two, k >= 4")
    (fun () -> ignore (build ~k:6 ~themis:true ()))

(* The build restarts the flow interner, whatever was built before it:
   the first flow of a fat tree made after a leaf-spine with three flows
   gets id 0. *)
let test_build_restarts_interner () =
  let ls = Network.build
      (Network.default_params ~fabric:Leaf_spine.motivation
         ~scheme:Network.Ecmp)
  in
  List.iter
    (fun dst -> ignore (Network.connect ls ~src:0 ~dst))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "leaf-spine flows interned" true
    (Flow_id.interned_count () >= 3);
  let net = build ~themis:true () in
  Alcotest.(check int) "fresh interner" 0 (Flow_id.interned_count ());
  let src, dst = inter_pod_pair net in
  let qp = Fat_tree_net.connect net ~src ~dst in
  Alcotest.(check (list int)) "first flow is id 0" [ 0 ]
    (List.map fst (Flow_id.intern_snapshot ()));
  Alcotest.(check (option int)) "its id" (Some 0)
    (Flow_id.lookup_interned (Rnic.qp_conn qp))

let () =
  Alcotest.run "fat_tree_net"
    [
      ( "3-tier themis",
        [
          Alcotest.test_case "inter-pod flow" `Quick test_inter_pod_flow_completes;
          Alcotest.test_case "covers all paths" `Quick test_rewrite_spreads_over_all_paths;
          Alcotest.test_case "no-loss invariant" `Quick test_no_loss_no_spurious_retx;
          Alcotest.test_case "loss recovered" `Quick test_loss_recovered;
          Alcotest.test_case "nack events stamped" `Quick
            test_nack_events_stamped;
          Alcotest.test_case "intra-pod safe" `Quick test_intra_pod_safe;
          Alcotest.test_case "plain ecmp" `Quick test_plain_ecmp_fat_tree;
          Alcotest.test_case "k=8" `Quick test_k8_builds;
          Alcotest.test_case "invalid k" `Quick test_invalid_k;
          Alcotest.test_case "build restarts interner" `Quick
            test_build_restarts_interner;
        ] );
    ]
