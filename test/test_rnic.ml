(* Two RNICs wired back-to-back (no switch): end-to-end transport. *)

let wire ?(bw = 100.) ?(delay = Sim_time.us 1) () =
  let engine = Engine.create () in
  let line_rate = Rate.gbps bw in
  let config = Rnic.default_config ~line_rate in
  let nic_a = Rnic.create ~engine ~node:0 ~config in
  let nic_b = Rnic.create ~engine ~node:1 ~config in
  let port_ab = Port.create ~engine ~bandwidth:line_rate ~delay ~label:"a->b" in
  let port_ba = Port.create ~engine ~bandwidth:line_rate ~delay ~label:"b->a" in
  Port.set_deliver port_ab (Rnic.receive nic_b);
  Port.set_deliver port_ba (Rnic.receive nic_a);
  Rnic.set_port nic_a port_ab;
  Rnic.set_port nic_b port_ba;
  (engine, nic_a, nic_b, port_ab, port_ba)

let test_message_delivery () =
  let engine, a, b, _, _ = wire () in
  let qp = Rnic.connect a ~dst:b in
  let done_at = ref None in
  Rnic.post_send qp ~bytes:100_000 ~on_complete:(fun t -> done_at := Some t);
  Engine.run engine ~until:(Sim_time.ms 100);
  (match !done_at with
  | None -> Alcotest.fail "message did not complete"
  | Some t ->
      (* 100 kB at 100 Gbps ~ 8.5 us serialization + RTT. *)
      Alcotest.(check bool) "plausible time" true
        (t > Sim_time.us 8 && t < Sim_time.us 40));
  Alcotest.(check int) "delivered" 100_000 (Rnic.delivered_bytes b);
  Alcotest.(check int) "no retx on clean path" 0 (Rnic.retx_packets_sent a);
  Alcotest.(check int) "no nacks" 0 (Rnic.nacks_sent b)

let test_loss_recovery_sr () =
  let engine, a, b, port_ab, _ = wire () in
  let qp = Rnic.connect a ~dst:b in
  (* Drop the 3rd data packet once: NIC-SR NACKs and the sender
     selectively repeats it. *)
  let countdown = ref 3 in
  let original_deliver = Rnic.receive b in
  Port.set_deliver port_ab (fun pkt ->
      if Packet.is_data pkt then begin
        decr countdown;
        if !countdown = 0 then () else original_deliver pkt
      end
      else original_deliver pkt);
  let done_at = ref None in
  Rnic.post_send qp ~bytes:20_000 ~on_complete:(fun t -> done_at := Some t);
  Engine.run engine ~until:(Sim_time.ms 100);
  Alcotest.(check bool) "completes despite loss" true (!done_at <> None);
  Alcotest.(check int) "all bytes delivered" 20_000 (Rnic.delivered_bytes b);
  Alcotest.(check int) "one retransmission" 1 (Rnic.retx_packets_sent a);
  Alcotest.(check int) "one nack" 1 (Rnic.nacks_sent b);
  Alcotest.(check int) "nack reached sender" 1 (Rnic.nacks_received a)

let test_loss_recovery_by_timeout_ideal () =
  (* The Ideal receiver never NACKs; a dropped packet is recovered by the
     sender's RTO. *)
  let engine = Engine.create () in
  let line_rate = Rate.gbps 100. in
  let cfg = { (Rnic.default_config ~line_rate) with Rnic.transport = `Ideal; rto = Sim_time.us 200 } in
  let a = Rnic.create ~engine ~node:0 ~config:cfg in
  let b = Rnic.create ~engine ~node:1 ~config:cfg in
  let port_ab = Port.create ~engine ~bandwidth:line_rate ~delay:(Sim_time.us 1) ~label:"a" in
  let port_ba = Port.create ~engine ~bandwidth:line_rate ~delay:(Sim_time.us 1) ~label:"b" in
  Port.set_deliver port_ab (Rnic.receive b);
  Port.set_deliver port_ba (Rnic.receive a);
  Rnic.set_port a port_ab;
  Rnic.set_port b port_ba;
  let qp = Rnic.connect a ~dst:b in
  Port.inject_drops port_ab 1;
  let done_at = ref None in
  Rnic.post_send qp ~bytes:5_000 ~on_complete:(fun t -> done_at := Some t);
  Engine.run engine ~until:(Sim_time.ms 50);
  Alcotest.(check bool) "completes via timeout" true (!done_at <> None);
  Alcotest.(check int) "no nacks ever" 0 (Rnic.nacks_sent b);
  Alcotest.(check bool) "timeout retransmitted" true (Rnic.retx_packets_sent a >= 1)

let test_gbn_transport () =
  let engine = Engine.create () in
  let line_rate = Rate.gbps 100. in
  let cfg = { (Rnic.default_config ~line_rate) with Rnic.transport = `Gbn } in
  let a = Rnic.create ~engine ~node:0 ~config:cfg in
  let b = Rnic.create ~engine ~node:1 ~config:cfg in
  let port_ab = Port.create ~engine ~bandwidth:line_rate ~delay:(Sim_time.us 1) ~label:"a" in
  let port_ba = Port.create ~engine ~bandwidth:line_rate ~delay:(Sim_time.us 1) ~label:"b" in
  Port.set_deliver port_ab (Rnic.receive b);
  Port.set_deliver port_ba (Rnic.receive a);
  Rnic.set_port a port_ab;
  Rnic.set_port b port_ba;
  let qp = Rnic.connect a ~dst:b in
  Port.inject_drops port_ab 1;
  let done_at = ref None in
  Rnic.post_send qp ~bytes:20_000 ~on_complete:(fun t -> done_at := Some t);
  Engine.run engine ~until:(Sim_time.ms 50);
  Alcotest.(check bool) "completes" true (!done_at <> None);
  Alcotest.(check int) "delivered" 20_000 (Rnic.delivered_bytes b);
  (* GBN resends the whole window after the gap: more than one retx. *)
  Alcotest.(check bool) "go-back-n retransmits several" true
    (Rnic.retx_packets_sent a > 1)

let test_cnp_on_ecn_mark () =
  let engine, a, b, port_ab, _ = wire () in
  let qp = Rnic.connect a ~dst:b in
  (* Mark every data packet CE on the wire. *)
  let deliver = Rnic.receive b in
  Port.set_deliver port_ab (fun pkt ->
      if Packet.is_data pkt then pkt.Packet.ecn <- Headers.Ce;
      deliver pkt);
  Rnic.post_send qp ~bytes:100_000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.ms 100);
  Alcotest.(check bool) "cnps generated" true (Rnic.cnps_sent b > 0);
  (* CNP pacing bounds the count: at most one per interval per QP. *)
  Alcotest.(check bool) "cnps paced" true (Rnic.cnps_sent b < 30);
  (* The sender's congestion control saw the CNPs. *)
  Alcotest.(check bool) "sender reacted" true
    (Sender.cnps_received (Rnic.qp_sender qp) > 0
    && Dcqcn.decreases (Sender.cc (Rnic.qp_sender qp)) > 0)

let test_bidirectional_qps () =
  let engine, a, b, _, _ = wire () in
  let qab = Rnic.connect a ~dst:b in
  let qba = Rnic.connect b ~dst:a in
  let done_ = ref 0 in
  Rnic.post_send qab ~bytes:50_000 ~on_complete:(fun _ -> incr done_);
  Rnic.post_send qba ~bytes:50_000 ~on_complete:(fun _ -> incr done_);
  Engine.run engine ~until:(Sim_time.ms 100);
  Alcotest.(check int) "both complete" 2 !done_;
  Alcotest.(check int) "a delivered" 50_000 (Rnic.delivered_bytes a);
  Alcotest.(check int) "b delivered" 50_000 (Rnic.delivered_bytes b)

let test_on_data_tx_hook () =
  let engine, a, b, _, _ = wire () in
  let qp = Rnic.connect a ~dst:b in
  let count = ref 0 in
  Rnic.set_on_data_tx a (fun pkt -> if Packet.is_data pkt then incr count);
  Rnic.post_send qp ~bytes:4_500 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.ms 10);
  Alcotest.(check int) "hook saw all data" 3 !count

let test_qp_accessors () =
  let _, a, b, _, _ = wire () in
  let qp = Rnic.connect a ~dst:b in
  let conn = Rnic.qp_conn qp in
  Alcotest.(check int) "src" 0 conn.Flow_id.src;
  Alcotest.(check int) "dst" 1 conn.Flow_id.dst;
  Alcotest.(check int) "first qpn" 1 conn.Flow_id.qpn;
  Alcotest.(check int) "next qpn" 2
    (Rnic.qp_conn (Rnic.connect a ~dst:b)).Flow_id.qpn;
  Alcotest.(check (float 1e-6)) "initial rate" 100.
    (Rate.to_gbps (Rnic.qp_rate qp));
  Alcotest.(check int) "two senders" 2 (List.length (Rnic.senders a))

let () =
  Alcotest.run "rnic"
    [
      ( "transport",
        [
          Alcotest.test_case "delivery" `Quick test_message_delivery;
          Alcotest.test_case "sr loss recovery" `Quick test_loss_recovery_sr;
          Alcotest.test_case "ideal timeout recovery" `Quick test_loss_recovery_by_timeout_ideal;
          Alcotest.test_case "gbn" `Quick test_gbn_transport;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional_qps;
        ] );
      ( "signals",
        [
          Alcotest.test_case "cnp on ecn" `Quick test_cnp_on_ecn_mark;
          Alcotest.test_case "tx hook" `Quick test_on_data_tx_hook;
        ] );
      ( "api",
        [
          Alcotest.test_case "accessors" `Quick test_qp_accessors;
        ] );
    ]
