(* The switch data plane, exercised standalone with stub endpoints. *)

(* Harness: a 2x2 leaf-spine with manual Ports whose deliveries are
   captured per node, letting us observe exactly what a single switch
   does with injected packets. *)

type harness = {
  engine : Engine.t;
  ls : Leaf_spine.t;
  routing : Routing.t;
  switches : (int, Switch.t) Hashtbl.t;
  received : (int, Packet.t list ref) Hashtbl.t;  (* host -> packets *)
}

let small_params =
  {
    Leaf_spine.n_leaves = 2;
    n_spines = 2;
    hosts_per_leaf = 2;
    host_bw = Rate.gbps 100.;
    fabric_bw = Rate.gbps 100.;
    link_delay = Sim_time.us 1;
  }

let build ?(lb = Lb_policy.Ecmp) ?(ecn = None)
    ?(per_port = Switch.default_per_port_cap) () =
  let engine = Engine.create () in
  let ls = Leaf_spine.build small_params in
  let topo = ls.Leaf_spine.topo in
  let routing = Routing.compute topo in
  let switches = Hashtbl.create 8 in
  let received = Hashtbl.create 8 in
  let cfg =
    {
      Switch.lb;
      ecn;
      per_port_cap = per_port;
      ecmp_shift = 0;
    }
  in
  Array.iter
    (fun node ->
      Hashtbl.replace switches node
        (Switch.create ~engine ~topo ~routing ~node ~config:cfg
           ~rng:(Rng.create ~seed:(1000 + node))))
    (Topology.switches topo);
  Array.iter (fun h -> Hashtbl.replace received h (ref [])) (Topology.hosts topo);
  let deliver_to node pkt =
    if Topology.is_host topo node then
      let box = Hashtbl.find received node in
      box := pkt :: !box
    else Switch.receive (Hashtbl.find switches node) pkt
  in
  for link_id = 0 to Topology.link_count topo - 1 do
    let link = Topology.link topo link_id in
    let dir src dst =
      let port =
        Port.create ~engine ~bandwidth:link.Topology.bandwidth
          ~delay:link.Topology.delay ~label:(Printf.sprintf "%d->%d" src dst)
      in
      Port.set_deliver port (deliver_to dst);
      if not (Topology.is_host topo src) then
        Switch.attach_port (Hashtbl.find switches src) ~link_id ~peer:dst port
    in
    dir link.Topology.a link.Topology.b;
    dir link.Topology.b link.Topology.a
  done;
  { engine; ls; routing; switches; received }

let conn_04 = Flow_id.make ~src:0 ~dst:2 ~qpn:1
(* host 2 = leaf 1 host 0 in the 2x2 fabric. *)

let data ?(sport = 500) psn =
  Packet.data ~conn:conn_04 ~sport ~psn:(Psn.of_int psn) ~payload:1000
    ~last_of_msg:false ~birth:0 ()

let tor0 h = Hashtbl.find h.switches h.ls.Leaf_spine.leaves.(0)
let tor1 h = Hashtbl.find h.switches h.ls.Leaf_spine.leaves.(1)
let host_rx h host = !(Hashtbl.find h.received host)

let test_forwards_cross_rack () =
  let h = build () in
  Switch.receive (tor0 h) (data 0);
  Engine.run h.engine;
  Alcotest.(check int) "delivered to host 2" 1 (List.length (host_rx h 2));
  Alcotest.(check int) "nothing to host 3" 0 (List.length (host_rx h 3));
  Alcotest.(check int) "rx counted" 1 (Switch.rx_packets (tor0 h));
  Alcotest.(check bool) "forwarded" true (Switch.forwarded_packets (tor0 h) >= 1)

let test_local_delivery () =
  let h = build () in
  let conn = Flow_id.make ~src:0 ~dst:1 ~qpn:1 in
  let pkt =
    Packet.data ~conn ~sport:5 ~psn:Psn.zero ~payload:100 ~last_of_msg:false
      ~birth:0 ()
  in
  Switch.receive (tor0 h) pkt;
  Engine.run h.engine;
  Alcotest.(check int) "same-rack delivery" 1 (List.length (host_rx h 1))

let test_ecmp_single_path_per_flow () =
  let h = build () in
  for psn = 0 to 19 do
    Switch.receive (tor0 h) (data psn)
  done;
  Engine.run h.engine;
  (* All 20 packets arrive (one spine used, but no loss). *)
  Alcotest.(check int) "all arrive" 20 (List.length (host_rx h 2));
  (* Exactly one spine carried traffic. *)
  let spines_used =
    List.filter
      (fun s -> Switch.rx_packets (Hashtbl.find h.switches s) > 0)
      (Array.to_list h.ls.Leaf_spine.spines)
  in
  Alcotest.(check int) "one spine" 1 (List.length spines_used)

let test_random_spray_uses_both_spines () =
  let h = build ~lb:Lb_policy.Random_spray () in
  for psn = 0 to 39 do
    Switch.receive (tor0 h) (data psn)
  done;
  Engine.run h.engine;
  Alcotest.(check int) "all arrive" 40 (List.length (host_rx h 2));
  Array.iter
    (fun s ->
      Alcotest.(check bool) "spine carried traffic" true
        (Switch.rx_packets (Hashtbl.find h.switches s) > 0))
    h.ls.Leaf_spine.spines

let test_buffer_drop () =
  (* Tiny per-port share: a burst overflows and is counted. *)
  let h = build ~per_port:4_000 () in
  for psn = 0 to 19 do
    Switch.receive (tor0 h) (data psn)
  done;
  Engine.run h.engine;
  Alcotest.(check bool) "drops happened" true (Switch.dropped_buffer (tor0 h) > 0);
  Alcotest.(check bool) "some arrive" true (List.length (host_rx h 2) > 0);
  Alcotest.(check bool) "not all arrive" true (List.length (host_rx h 2) < 20)

let test_buffer_released () =
  let h = build ~per_port:4_000 () in
  Switch.receive (tor0 h) (data 0);
  Engine.run h.engine;
  Alcotest.(check int) "pool drained back to zero" 0
    (Buffer_pool.used (Switch.buffer_pool (tor0 h)))

let test_ecn_marking () =
  let ecn = Some (Ecn.config ~kmin:0 ~kmax:1 ~pmax:1.) in
  let h = build ~ecn () in
  for psn = 0 to 9 do
    Switch.receive (tor0 h) (data psn)
  done;
  Engine.run h.engine;
  (* Everything beyond the first packet finds a queue > kmax. *)
  Alcotest.(check bool) "marks counted" true (Switch.ecn_marked (tor0 h) > 0);
  let marked =
    List.filter (fun p -> p.Packet.ecn = Headers.Ce) (host_rx h 2)
  in
  Alcotest.(check bool) "packets carry CE" true (List.length marked > 0)

let test_unreachable_dropped () =
  let h = build () in
  let conn = Flow_id.make ~src:0 ~dst:999 ~qpn:1 in
  Alcotest.check_raises "unknown destination"
    (Invalid_argument "Routing: destination is not a host") (fun () ->
      Switch.receive (tor0 h)
        (Packet.data ~conn ~sport:1 ~psn:Psn.zero ~payload:10 ~last_of_msg:false
           ~birth:0 ()))

let set_link h a b up =
  let topo = h.ls.Leaf_spine.topo in
  match Topology.link_between topo a b with
  | Some link_id ->
      Topology.set_link_up topo ~link_id up;
      Routing.recompute h.routing
  | None -> Alcotest.fail "no such link"

(* Both uplinks of ToR 0 down: host 2 is unreachable from it.  Every
   packet towards it is dropped, counted and released, and the row
   compiled for it (empty) is reused: no probe, and no recompile. *)
let test_unreachable_after_failure () =
  let h = build () in
  let tor = tor0 h in
  Array.iter
    (fun spine -> set_link h (Switch.node_id tor) spine false)
    h.ls.Leaf_spine.spines;
  let conn_id = Flow_id.intern conn_04 in
  let released = ref true in
  let send () =
    let pkt =
      Packet_pool.data ~conn:conn_04 ~conn_id ~sport:500 ~psn:Psn.zero
        ~payload:1000 ~last_of_msg:false ~retransmission:false ~birth:0
    in
    Switch.receive tor pkt;
    released := !released && pkt.Packet.pooled
  in
  send ();
  let probes = Switch.forward_hash_probes () in
  let words = Gc.minor_words () in
  for _ = 1 to 50 do
    send ()
  done;
  Alcotest.(check (float 0.)) "no allocation" 0. (Gc.minor_words () -. words);
  Alcotest.(check bool) "all released" true !released;
  Alcotest.(check int) "no probes" probes (Switch.forward_hash_probes ());
  Alcotest.(check int) "all counted" 51 (Switch.dropped_unreachable tor);
  Alcotest.(check int) "nothing forwarded" 0 (Switch.forwarded_packets tor);
  Engine.run h.engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length (host_rx h 2))

(* A compiled row follows a link going down and coming back: it shrinks
   to the surviving uplink, then regrows to both, and each change costs
   one recompile (its hashtable probes) on the next packet only. *)
let test_rows_recompile_on_flap () =
  let h = build () in
  let tor = tor0 h in
  let dst = 2 in
  let row () = Array.map Port.label (Switch.compiled_next_ports tor ~dst) in
  let both = row () in
  Alcotest.(check int) "two uplinks" 2 (Array.length both);
  let spine = h.ls.Leaf_spine.spines.(0) in
  set_link h (Switch.node_id tor) spine false;
  let p0 = Switch.forward_hash_probes () in
  Alcotest.(check (array string)) "one uplink" [| both.(1) |] (row ());
  Alcotest.(check int) "recompiled once" (p0 + 1) (Switch.forward_hash_probes ());
  ignore (row ());
  Alcotest.(check int) "then cached" (p0 + 1) (Switch.forward_hash_probes ());
  set_link h (Switch.node_id tor) spine true;
  Alcotest.(check (array string)) "both again" both (row ());
  Alcotest.(check int) "recompiled again" (p0 + 3)
    (Switch.forward_hash_probes ());
  for psn = 0 to 9 do
    Switch.receive tor (data psn)
  done;
  Engine.run h.engine;
  Alcotest.(check int) "delivered" 10 (List.length (host_rx h dst))

let themis_pair h ~compensation =
  let paths = Leaf_spine.n_paths h.ls in
  let injected = ref [] in
  let s = Themis_s.create ~paths ~mode:Themis_s.Direct_egress in
  let d =
    Themis_d.create ~paths ~queue_capacity:64 ~compensation
      ~node:(Switch.node_id (tor1 h))
      ~clock:(fun () -> Engine.now h.engine)
      ~inject_nack:(fun ~conn ~conn_id:_ ~sport ~epsn ->
        injected := Psn.to_int epsn :: !injected;
        Switch.inject (tor1 h)
          (Packet.nack ~conn ~sport ~epsn ~birth:(Engine.now h.engine)))
      ()
  in
  (s, d, injected)

let test_themis_s_sprays_at_source_tor () =
  let h = build () in
  let s, _, _ = themis_pair h ~compensation:true in
  Switch.set_themis (tor0 h) ~s:(Some s) ~d:None;
  for psn = 0 to 19 do
    Switch.receive (tor0 h) (data psn)
  done;
  Engine.run h.engine;
  Alcotest.(check int) "all delivered" 20 (List.length (host_rx h 2));
  Alcotest.(check int) "sprayed" 20 (Themis_s.sprayed_packets s);
  (* Both spines carried exactly half of a 2-path PSN spray. *)
  Array.iter
    (fun sp ->
      Alcotest.(check int) "even split" 10
        (Switch.rx_packets (Hashtbl.find h.switches sp)))
    h.ls.Leaf_spine.spines

let test_themis_d_blocks_nack_from_host () =
  let h = build () in
  let _, d, _ = themis_pair h ~compensation:true in
  Switch.set_themis (tor1 h) ~s:None ~d:(Some d);
  (* Data 0, 1, 3 leave ToR1 towards host 2 (recorded in ring). *)
  List.iter (fun p -> Switch.receive (tor1 h) (data p)) [ 0; 1; 3 ];
  Engine.run h.engine;
  (* Host 2's NIC NACKs ePSN 2; the ToR intercepts it on its way back. *)
  let nack = Packet.nack ~conn:conn_04 ~sport:500 ~epsn:(Psn.of_int 2) ~birth:0 in
  Switch.receive (tor1 h) nack;
  Engine.run h.engine;
  Alcotest.(check int) "nack blocked at tor" 1
    (Switch.nacks_intercept_blocked (tor1 h));
  (* Nothing came back out towards host 0. *)
  Alcotest.(check int) "sender saw nothing" 0 (List.length (host_rx h 0))

let test_themis_d_forwards_valid_nack () =
  let h = build () in
  let _, d, _ = themis_pair h ~compensation:true in
  Switch.set_themis (tor1 h) ~s:None ~d:(Some d);
  List.iter (fun p -> Switch.receive (tor1 h) (data p)) [ 0; 1; 4 ];
  Engine.run h.engine;
  (* tPSN 4 and ePSN 2 share a path (mod 2): genuine loss, forward. *)
  let nack = Packet.nack ~conn:conn_04 ~sport:500 ~epsn:(Psn.of_int 2) ~birth:0 in
  Switch.receive (tor1 h) nack;
  Engine.run h.engine;
  Alcotest.(check int) "not blocked" 0 (Switch.nacks_intercept_blocked (tor1 h));
  Alcotest.(check int) "reached the sender host" 1 (List.length (host_rx h 0))

let test_themis_compensation_injection () =
  let h = build () in
  let _, d, injected = themis_pair h ~compensation:true in
  Switch.set_themis (tor1 h) ~s:None ~d:(Some d);
  List.iter (fun p -> Switch.receive (tor1 h) (data p)) [ 0; 1; 3 ];
  Engine.run h.engine;
  let nack = Packet.nack ~conn:conn_04 ~sport:500 ~epsn:(Psn.of_int 2) ~birth:0 in
  Switch.receive (tor1 h) nack;
  Engine.run h.engine;
  (* PSN 4 (same path as the lost 2) proves the loss: the ToR generates
     the NACK itself and it travels to the sender. *)
  Switch.receive (tor1 h) (data 4);
  Engine.run h.engine;
  Alcotest.(check (list int)) "compensated" [ 2 ] !injected;
  Alcotest.(check int) "sender received the generated NACK" 1
    (List.length (host_rx h 0))

let test_set_lb_fallback () =
  let h = build ~lb:Lb_policy.Random_spray () in
  Switch.set_lb (tor0 h) Lb_policy.Ecmp;
  Alcotest.(check bool) "config updated" true
    ((Switch.config (tor0 h)).Switch.lb = Lb_policy.Ecmp)

(* Property: after any sequence of link failures and restorations (the
   mechanism behind Network.fail_link/restore_link: flip the link, then
   Routing.recompute), every switch's compiled per-destination port
   arrays must agree hop-for-hop with a routing table computed from
   scratch on the same topology.  Ports are matched by label, which the
   harness makes unique per (switch, peer) direction. *)
let prop_compiled_tables_track_failures =
  QCheck.Test.make ~name:"compiled tables track fail/restore" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 12) (pair small_nat bool))
    (fun ops ->
      let h = build () in
      let topo = h.ls.Leaf_spine.topo in
      let ok = ref true in
      let check_all () =
        let fresh = Routing.compute topo in
        Hashtbl.iter
          (fun node sw ->
            Array.iter
              (fun dst ->
                let want = Routing.next_hops fresh ~node ~dst in
                let got = Switch.compiled_next_ports sw ~dst in
                if Array.length got <> Array.length want then ok := false
                else
                  Array.iteri
                    (fun i (peer, _link) ->
                      if Port.label got.(i) <> Printf.sprintf "%d->%d" node peer
                      then ok := false)
                    want)
              (Topology.hosts topo))
          h.switches
      in
      (* Compile every table once so the op loop exercises invalidation
         of populated caches, not just first-touch compilation. *)
      check_all ();
      List.iter
        (fun (pick, down) ->
          let link_id = pick mod Topology.link_count topo in
          Topology.set_link_up topo ~link_id (not down);
          Routing.recompute h.routing;
          check_all ())
        ops;
      !ok)

let () =
  Alcotest.run "switch"
    [
      ( "forwarding",
        [
          Alcotest.test_case "cross rack" `Quick test_forwards_cross_rack;
          Alcotest.test_case "local" `Quick test_local_delivery;
          Alcotest.test_case "ecmp one path" `Quick test_ecmp_single_path_per_flow;
          Alcotest.test_case "spray both spines" `Quick test_random_spray_uses_both_spines;
          Alcotest.test_case "unreachable" `Quick test_unreachable_dropped;
          Alcotest.test_case "unreachable after failure" `Quick
            test_unreachable_after_failure;
          Alcotest.test_case "rows recompile on flap" `Quick
            test_rows_recompile_on_flap;
        ] );
      ( "resources",
        [
          Alcotest.test_case "buffer drop" `Quick test_buffer_drop;
          Alcotest.test_case "buffer release" `Quick test_buffer_released;
          Alcotest.test_case "ecn marking" `Quick test_ecn_marking;
        ] );
      ( "themis hooks",
        [
          Alcotest.test_case "spraying at source" `Quick test_themis_s_sprays_at_source_tor;
          Alcotest.test_case "nack blocked" `Quick test_themis_d_blocks_nack_from_host;
          Alcotest.test_case "valid nack forwarded" `Quick test_themis_d_forwards_valid_nack;
          Alcotest.test_case "compensation" `Quick test_themis_compensation_injection;
          Alcotest.test_case "lb fallback" `Quick test_set_lb_fallback;
        ] );
      ( "compiled tables",
        [ QCheck_alcotest.to_alcotest prop_compiled_tables_track_failures ] );
    ]
