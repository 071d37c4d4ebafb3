(* End-to-end simulations over the full network stack: the system-level
   guarantees Themis must provide. *)

let motivation_params scheme =
  Network.default_params ~fabric:Leaf_spine.motivation ~scheme

let run_one_flow ?(bytes = 500_000) ?(horizon = Sim_time.sec 5) params =
  let net = Network.build params in
  let dst = Leaf_spine.host (Network.fabric net) ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes ~on_complete:(fun t -> done_at := Some t);
  Network.run net ~until:horizon;
  (net, !done_at)

let test_single_flow_all_schemes () =
  List.iter
    (fun scheme ->
      let net, done_at = run_one_flow (motivation_params scheme) in
      (match done_at with
      | Some _ -> ()
      | None ->
          Alcotest.failf "flow did not complete under %s"
            (Network.scheme_to_string scheme));
      Alcotest.(check int)
        (Network.scheme_to_string scheme ^ " no drops")
        0 (Network.total_buffer_drops net))
    [
      Network.Ecmp;
      Network.Adaptive;
      Network.Random_spray;
      Network.Psn_spray_only;
      Network.Themis { compensation = true };
    ]

let test_themis_blocks_all_nacks_without_loss () =
  (* Invariant: with PSN spraying and no loss, every NACK is invalid and
     Themis delivers none of them to senders — zero spurious
     retransmissions and zero NACK slow-starts. *)
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let done_count = ref 0 in
  (* Cross traffic to force reordering: all 8 hosts in two rings. *)
  ignore
    (Workload.motivation_rings net ~bytes:1_000_000 ~on_complete:(fun _ _ ->
         incr done_count));
  Network.run net ~until:(Sim_time.sec 5);
  Alcotest.(check int) "all flows complete" 8 !done_count;
  Alcotest.(check int) "no nacks reach senders" 0 (Network.total_nacks_delivered net);
  Alcotest.(check int) "no spurious retransmissions" 0
    (Network.total_retx_packets net);
  match Network.themis_totals net with
  | None -> Alcotest.fail "themis stats expected"
  | Some t ->
      Alcotest.(check int) "all seen NACKs blocked" t.Network.nacks_seen
        t.Network.nacks_blocked;
      Alcotest.(check int) "no real loss -> no compensation" 0
        t.Network.compensation_sent

let test_themis_recovers_real_loss () =
  (* Force drops in the fabric: the flow must still complete, via valid
     NACKs (same-path trigger) or compensation or timeout, and every
     dropped packet must be retransmitted. *)
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let ls = Network.fabric net in
  let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  (* Drop 5 data packets on one ToR->spine uplink mid-message. *)
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let uplink = Option.get (Switch.port_to (Network.switch net ~node:tor0) ~peer:spine0) in
  Port.inject_drops uplink 5;
  let done_at = ref None in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun t -> done_at := Some t);
  Network.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes despite loss" true (!done_at <> None);
  Alcotest.(check int) "dropped five" 5 (Port.dropped_packets uplink);
  Alcotest.(check bool) "retransmissions happened" true
    (Network.total_retx_packets net >= 5);
  Alcotest.(check int) "receiver got every byte" 1_000_000
    (Rnic.delivered_bytes (Network.nic net ~host:dst))

let test_compensation_carries_recovery () =
  (* Same as above but check the recovery is NACK-driven (valid forwards
     plus compensations cover the drops) rather than pure timeout. *)
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let ls = Network.fabric net in
  let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let uplink = Option.get (Switch.port_to (Network.switch net ~node:tor0) ~peer:spine0) in
  Port.inject_drops uplink 3;
  let done_at = ref None in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun t -> done_at := Some t);
  Network.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  match Network.themis_totals net with
  | None -> Alcotest.fail "themis stats expected"
  | Some t ->
      Alcotest.(check bool) "nack-driven recovery" true
        (t.Network.nacks_forwarded_valid + t.Network.compensation_sent >= 1)

(* Property: whatever loss the fabric injects (random counts at random
   uplinks), a Themis network delivers every byte exactly once and the
   transfer completes. *)
let prop_random_drops_safe =
  QCheck.Test.make ~name:"themis delivers exactly once under random loss"
    ~count:20
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size (Gen.int_range 0 4)
           (make (Gen.pair (Gen.int_range 0 1) (Gen.pair (Gen.int_range 0 3) (Gen.int_range 1 4))))))
    (fun (seed, drop_specs) ->
      let params =
        {
          (motivation_params (Network.Themis { compensation = true })) with
          Network.seed;
        }
      in
      let net = Network.build params in
      let ls = Network.fabric net in
      let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
      let qp = Network.connect net ~src:0 ~dst in
      List.iter
        (fun (leaf, (spine, n)) ->
          let tor = ls.Leaf_spine.leaves.(leaf) in
          let sp = ls.Leaf_spine.spines.(spine) in
          match Switch.port_to (Network.switch net ~node:tor) ~peer:sp with
          | Some port -> Port.inject_drops port n
          | None -> ())
        drop_specs;
      let done_at = ref None in
      let bytes = 300_000 in
      Rnic.post_send qp ~bytes ~on_complete:(fun t -> done_at := Some t);
      Network.run net ~until:(Sim_time.sec 10);
      !done_at <> None
      && Rnic.delivered_bytes (Network.nic net ~host:dst) = bytes)

let test_determinism_same_seed () =
  let run () =
    let net, done_at = run_one_flow (motivation_params Network.Random_spray) in
    (Option.get done_at, Network.total_data_packets net,
     Network.total_nacks_generated net)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_seed_changes_outcome () =
  let run seed =
    let params = { (motivation_params Network.Random_spray) with Network.seed } in
    let net, done_at = run_one_flow params in
    ignore done_at;
    (* The per-spine packet counts fingerprint the spraying decisions. *)
    Array.to_list
      (Array.map
         (fun sp -> Switch.rx_packets (Network.switch net ~node:sp))
         (Network.fabric net).Leaf_spine.spines)
  in
  Alcotest.(check bool) "seeds matter" true (run 1 <> run 2)

let test_link_failure_fallback () =
  (* Section 6: on failure, Themis turns itself off and falls back to
     ECMP; traffic still completes. *)
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let ls = Network.fabric net in
  Alcotest.(check bool) "themis on" true (Network.themis_active net);
  let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:2_000_000 ~on_complete:(fun t -> done_at := Some t);
  (* Fail a ToR-spine link shortly after the start. *)
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let link =
    Option.get (Topology.link_between ls.Leaf_spine.topo tor0 spine0)
  in
  ignore
    (Engine.schedule (Network.engine net) ~delay:(Sim_time.us 20) (fun () ->
         Network.fail_link net ~link_id:link));
  Network.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "themis disabled" false (Network.themis_active net);
  Alcotest.(check bool) "completes over remaining paths" true (!done_at <> None);
  Alcotest.(check bool) "tor reverted to ecmp" true
    ((Switch.config (Network.switch net ~node:tor0)).Switch.lb = Lb_policy.Ecmp);
  Alcotest.(check bool) "middleware detached" true
    (Switch.themis_d (Network.switch net ~node:tor0) = None)

let test_link_failure_shrink_pathset () =
  (* Section 6 future work: stay in spraying mode over the surviving
     spines instead of reverting to ECMP. *)
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let ls = Network.fabric net in
  let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:2_000_000 ~on_complete:(fun t -> done_at := Some t);
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let link =
    Option.get (Topology.link_between ls.Leaf_spine.topo tor0 spine0)
  in
  ignore
    (Engine.schedule (Network.engine net) ~delay:(Sim_time.us 20) (fun () ->
         Network.fail_link ~mode:`Shrink_pathset net ~link_id:link));
  Network.run net ~until:(Sim_time.sec 5);
  Alcotest.(check bool) "themis still active" true (Network.themis_active net);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  (match Switch.themis_s (Network.switch net ~node:tor0) with
  | Some s -> Alcotest.(check int) "sprays over 3 spines" 3 (Themis_s.paths s)
  | None -> Alcotest.fail "themis-s should remain attached");
  match Switch.themis_d (Network.switch net ~node:tor0) with
  | Some d -> Alcotest.(check int) "validates over 3 spines" 3 (Themis_d.paths d)
  | None -> Alcotest.fail "themis-d should remain attached"

let test_connect_registers_flow () =
  let params = motivation_params (Network.Themis { compensation = true }) in
  let net = Network.build params in
  let dst = Leaf_spine.host (Network.fabric net) ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let dst_tor = Leaf_spine.tor_of_host (Network.fabric net) dst in
  match Switch.themis_d (Network.switch net ~node:dst_tor) with
  | None -> Alcotest.fail "themis-d expected on dst ToR"
  | Some d ->
      Alcotest.(check bool) "flow table entry" true
        (Flow_table.find (Themis_d.flow_table d) (Rnic.qp_conn qp) <> None)

let test_paper_scale_builds_and_runs () =
  (* The full 16x16 evaluation fabric (256 NICs): build it, push one
     cross-rack message through Themis, and make sure the machinery
     scales. *)
  let params =
    Network.default_params ~fabric:Leaf_spine.paper_eval
      ~scheme:(Network.Themis { compensation = true })
  in
  let net = Network.build params in
  Alcotest.(check int) "16 paths" 16 (Network.n_paths net);
  Alcotest.(check int) "256 hosts" 256
    (Array.length (Network.fabric net).Leaf_spine.hosts);
  let dst = Leaf_spine.host (Network.fabric net) ~leaf:15 ~index:15 in
  let qp = Network.connect net ~src:0 ~dst in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:1_000_000 ~on_complete:(fun t -> done_at := Some t);
  Network.run net ~until:(Sim_time.sec 5);
  (match !done_at with
  | Some t ->
      (* 1 MB at 400 Gbps + 4 hops of 1 us: ~25 us. *)
      Alcotest.(check bool) "fast" true (t < Sim_time.us 100)
  | None -> Alcotest.fail "did not complete");
  Alcotest.(check int) "clean" 0 (Network.total_retx_packets net)

let test_scheme_strings () =
  List.iter
    (fun s ->
      match Network.scheme_of_string (Network.scheme_to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    [
      Network.Ecmp;
      Network.Adaptive;
      Network.Random_spray;
      Network.Psn_spray_only;
      Network.Themis { compensation = true };
      Network.Themis { compensation = false };
    ]

let test_spray_outperforms_ecmp_on_collisions () =
  (* The headline qualitative claim at flow level: with several elephants
     sharing uplinks, per-packet spraying with Themis finishes no later
     than ECMP (which can collide two flows onto one spine). *)
  let run scheme =
    let params =
      { (motivation_params scheme) with Network.seed = 3 }
    in
    let net = Network.build params in
    let ls = Network.fabric net in
    let finished = ref [] in
    (* Hosts 0 and 1 both send cross-rack. *)
    List.iter
      (fun (src, dst_idx) ->
        let dst = Leaf_spine.host ls ~leaf:1 ~index:dst_idx in
        let qp = Network.connect net ~src ~dst in
        Rnic.post_send qp ~bytes:2_000_000 ~on_complete:(fun t ->
            finished := t :: !finished))
      [ (0, 0); (1, 1); (2, 2); (3, 3) ];
    Network.run net ~until:(Sim_time.sec 5);
    Alcotest.(check int) "all done" 4 (List.length !finished);
    List.fold_left Stdlib.max 0 !finished
  in
  let themis = run (Network.Themis { compensation = true }) in
  let ecmp = run Network.Ecmp in
  Alcotest.(check bool) "themis <= ecmp tail" true (themis <= ecmp)

(* Building a fabric is the run boundary: it restarts the flow interner
   PRIME hashes its entropy from, so a PRIME run made after an unrelated
   build with other flows is the same run as one made first. *)
let prime_shift_permutation () =
  let net =
    Network.build
      (Network.default_params ~fabric:Experiment.scaled_eval_fabric
         ~scheme:Network.Prime)
  in
  let ls = Network.fabric net in
  let last = ref 0 in
  for leaf = 0 to 7 do
    for index = 0 to 7 do
      let qp =
        Network.connect net
          ~src:(Leaf_spine.host ls ~leaf ~index)
          ~dst:(Leaf_spine.host ls ~leaf:((leaf + 1) mod 8) ~index)
      in
      Rnic.post_send qp ~bytes:200_000 ~on_complete:(fun t ->
          last := max !last t)
    done
  done;
  Network.run net ~until:(Sim_time.sec 1);
  ( Engine.events_processed (Network.engine net),
    !last,
    Network.total_ooo_arrivals net,
    Network.total_retx_packets net )

let test_build_is_run_boundary () =
  let other = Network.build (motivation_params Network.Ecmp) in
  List.iter
    (fun (src, leaf) ->
      let dst = Leaf_spine.host (Network.fabric other) ~leaf ~index:1 in
      Rnic.post_send (Network.connect other ~src ~dst) ~bytes:50_000
        ~on_complete:ignore)
    [ (0, 1); (1, 1); (2, 0) ];
  Network.run other ~until:(Sim_time.sec 1);
  let events', last', ooo', retx' = prime_shift_permutation () in
  (* The interner of a fresh process, where this run would come first. *)
  Flow_id.reset_interner ();
  let events, last, ooo, retx = prime_shift_permutation () in
  Alcotest.(check bool) "completed" true (last > 0);
  Alcotest.(check int) "events" events events';
  Alcotest.(check int) "last completion" last last';
  Alcotest.(check int) "ooo arrivals" ooo ooo';
  Alcotest.(check int) "retransmissions" retx retx'

let () =
  Alcotest.run "integration"
    [
      ( "safety",
        [
          Alcotest.test_case "single flow all schemes" `Quick test_single_flow_all_schemes;
          Alcotest.test_case "no-loss: all NACKs blocked" `Quick
            test_themis_blocks_all_nacks_without_loss;
          Alcotest.test_case "real loss recovered" `Quick test_themis_recovers_real_loss;
          Alcotest.test_case "nack-driven recovery" `Quick test_compensation_carries_recovery;
          QCheck_alcotest.to_alcotest prop_random_drops_safe;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed" `Quick test_determinism_same_seed;
          Alcotest.test_case "different seed" `Quick test_seed_changes_outcome;
          Alcotest.test_case "build is the run boundary" `Quick
            test_build_is_run_boundary;
        ] );
      ( "operations",
        [
          Alcotest.test_case "link failure fallback" `Quick test_link_failure_fallback;
          Alcotest.test_case "link failure shrink pathset" `Quick
            test_link_failure_shrink_pathset;
          Alcotest.test_case "connect registers" `Quick test_connect_registers_flow;
          Alcotest.test_case "scheme strings" `Quick test_scheme_strings;
          Alcotest.test_case "paper-scale fabric" `Quick test_paper_scale_builds_and_runs;
          Alcotest.test_case "themis <= ecmp" `Quick test_spray_outperforms_ecmp_on_collisions;
        ] );
    ]
