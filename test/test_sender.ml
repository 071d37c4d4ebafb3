(* The requester: segmentation, pacing, SR/GBN retransmission, RTO. *)

let conn = Flow_id.make ~src:1 ~dst:2 ~qpn:4

let config ?(mode = Sender.Sr_retx) ?(window = 64) ?(rto = Sim_time.ms 1) () =
  {
    Sender.mtu = 1000;
    mode;
    window;
    rto;
    cc = { Dcqcn.default with Dcqcn.nack_slow_start = false };
  }

let make ?mode ?window ?rto () =
  let engine = Engine.create () in
  let sent = ref [] in
  let s =
    Sender.create ~engine ~conn ~sport:7 ~config:(config ?mode ?window ?rto ())
      ~line_rate:(Rate.gbps 100.)
      ~transmit:(fun pkt -> sent := pkt :: !sent)
  in
  (engine, s, sent)

let psns sent =
  List.rev_map
    (fun p ->
      match p.Packet.kind with
      | Packet.Data { psn; _ } -> Psn.to_int psn
      | _ -> -1)
    !sent

let test_segmentation () =
  let engine, s, sent = make () in
  let completed = ref None in
  Sender.post s ~bytes:2500 ~on_complete:(fun t -> completed := Some t);
  Engine.run engine ~until:(Sim_time.us 50);
  (* 2500 B at MTU 1000 -> packets of 1000, 1000, 500. *)
  let payloads =
    List.rev_map
      (fun p ->
        match p.Packet.kind with
        | Packet.Data { payload; last_of_msg; _ } -> (payload, last_of_msg)
        | _ -> (-1, false))
      !sent
  in
  Alcotest.(check (list (pair int bool)))
    "segments"
    [ (1000, false); (1000, false); (500, true) ]
    payloads;
  Alcotest.(check int) "sent count" 3 (Sender.data_packets_sent s);
  Alcotest.(check bool) "not complete without acks" true (!completed = None);
  Alcotest.(check int) "outstanding" 3 (Sender.outstanding s)

let test_completion_on_cumulative_ack () =
  let engine, s, _ = make () in
  let completed = ref None in
  Sender.post s ~bytes:2500 ~on_complete:(fun t -> completed := Some t);
  Engine.run engine ~until:(Sim_time.us 10);
  Sender.on_ack s (Psn.of_int 2);
  Alcotest.(check bool) "partial ack" true (!completed = None);
  Sender.on_ack s (Psn.of_int 3);
  Alcotest.(check bool) "complete" true (!completed <> None);
  Alcotest.(check bool) "idle" true (Sender.idle s);
  Alcotest.(check int) "bytes completed" 2500 (Sender.bytes_completed s)

let test_pacing_spacing () =
  let engine = Engine.create () in
  let times = ref [] in
  let s =
    Sender.create ~engine ~conn ~sport:7 ~config:(config ())
      ~line_rate:(Rate.gbps 100.)
      ~transmit:(fun _ -> times := Engine.now engine :: !times)
  in
  Sender.post s ~bytes:3000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 50);
  (* At 100 Gbps (and line-rate DCQCN) a 1062 B frame paces one
     serialization time apart. *)
  let gap = Rate.tx_time (Rate.gbps 100.) ~bytes_:(1000 + Headers.data_overhead) in
  match List.rev !times with
  | [ t0; t1; t2 ] ->
      Alcotest.(check int) "first immediate" 0 t0;
      Alcotest.(check int) "second one gap" gap t1;
      Alcotest.(check int) "third two gaps" (2 * gap) t2
  | l -> Alcotest.failf "expected 3 sends, got %d" (List.length l)

let test_window_cap () =
  let engine, s, sent = make ~window:4 () in
  Sender.post s ~bytes:20_000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.ms 100);
  (* Without acks, only [window] packets may be in flight (plus RTO
     retransmissions of the oldest). *)
  let fresh = List.filter (fun p -> not p.Packet.retransmission) !sent in
  Alcotest.(check int) "window limits fresh sends" 4 (List.length fresh);
  Alcotest.(check int) "outstanding capped" 4 (Sender.outstanding s)

let test_sr_nack_retransmits_exactly_epsn () =
  let engine, s, sent = make () in
  Sender.post s ~bytes:5000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 50);
  sent := [];
  (* NACK for ePSN 2: the receiver holds everything below 2. *)
  Sender.on_nack s (Psn.of_int 2);
  Engine.run engine ~until:(Sim_time.us 100);
  Alcotest.(check (list int)) "only psn 2 retransmitted" [ 2 ] (psns sent);
  Alcotest.(check bool) "marked retx" true
    (List.for_all (fun p -> p.Packet.retransmission) !sent);
  Alcotest.(check int) "retx counter" 1 (Sender.retx_packets_sent s);
  Alcotest.(check int) "nack counter" 1 (Sender.nacks_received s);
  (* A duplicate NACK for the same ePSN while pending does not duplicate
     the retransmission... but after it was sent, a fresh NACK may. *)
  sent := [];
  Sender.on_nack s (Psn.of_int 2);
  Engine.run engine ~until:(Sim_time.us 150);
  Alcotest.(check (list int)) "re-nack after send retransmits again" [ 2 ] (psns sent)

let test_duplicate_nack_while_pending () =
  let engine, s, sent = make () in
  Sender.post s ~bytes:100_000 ~on_complete:(fun _ -> ());
  (* Mid-stream: the pacer is busy, so a queued retransmission waits. *)
  Engine.run engine ~until:(Sim_time.us 1);
  Sender.on_nack s (Psn.of_int 2);
  Sender.on_nack s (Psn.of_int 2);
  Engine.run engine ~until:(Sim_time.us 50);
  Alcotest.(check int) "psn 2 sent once, retransmitted once" 2
    (List.length (List.filter (( = ) 2) (psns sent)));
  Alcotest.(check int) "retx counter" 1 (Sender.retx_packets_sent s)

let test_nack_advances_una () =
  let engine, s, _ = make () in
  let completed = ref false in
  Sender.post s ~bytes:3000 ~on_complete:(fun _ -> completed := true);
  Engine.run engine ~until:(Sim_time.us 50);
  (* NACK(2) acknowledges 0 and 1 cumulatively. *)
  Sender.on_nack s (Psn.of_int 2);
  Alcotest.(check int) "outstanding shrinks" 1 (Sender.outstanding s);
  Engine.run engine ~until:(Sim_time.us 100);
  (* Retransmitted 2 arrives; full ACK completes the message. *)
  Sender.on_ack s (Psn.of_int 3);
  Alcotest.(check bool) "completes" true !completed

let test_gbn_nack_rewinds () =
  let engine, s, sent = make ~mode:Sender.Gbn_retx () in
  Sender.post s ~bytes:5000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 50);
  sent := [];
  Sender.on_nack s (Psn.of_int 2);
  Engine.run engine ~until:(Sim_time.us 100);
  (* Go-back-N: everything from 2 is resent. *)
  Alcotest.(check (list int)) "rewound" [ 2; 3; 4 ] (psns sent)

let test_rto_retransmits () =
  let engine, s, sent = make ~rto:(Sim_time.us 100) () in
  Sender.post s ~bytes:2000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 50);
  sent := [];
  (* No acks: the timer fires and resends the oldest unacked packet. *)
  Engine.run engine ~until:(Sim_time.us 350);
  Alcotest.(check bool) "psn 0 retransmitted" true (List.mem 0 (psns sent));
  Alcotest.(check bool) "timeouts counted" true (Sender.timeouts s >= 1)

let test_rto_cancelled_when_idle () =
  let engine, s, _ = make ~rto:(Sim_time.us 100) () in
  Sender.post s ~bytes:1000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 10);
  Sender.on_ack s (Psn.of_int 1);
  Engine.run engine;
  Alcotest.(check int) "no timeout" 0 (Sender.timeouts s)

let test_multiple_messages_fifo () =
  let engine, s, _ = make () in
  let order = ref [] in
  Sender.post s ~bytes:1500 ~on_complete:(fun _ -> order := 1 :: !order);
  Sender.post s ~bytes:1000 ~on_complete:(fun _ -> order := 2 :: !order);
  Engine.run engine ~until:(Sim_time.us 50);
  (* 1500 -> psns 0,1; 1000 -> psn 2. *)
  Sender.on_ack s (Psn.of_int 3);
  Alcotest.(check (list int)) "completion order" [ 2; 1 ] !order;
  Alcotest.(check int) "bytes" 2500 (Sender.bytes_completed s)

let test_stale_nack_ignored () =
  let engine, s, sent = make () in
  Sender.post s ~bytes:3000 ~on_complete:(fun _ -> ());
  Engine.run engine ~until:(Sim_time.us 50);
  Sender.on_ack s (Psn.of_int 3);
  sent := [];
  (* A NACK below una must not cause retransmission. *)
  Sender.on_nack s (Psn.of_int 1);
  Engine.run engine;
  Alcotest.(check (list int)) "nothing sent" [] (psns sent)

let test_cnp_counted () =
  let _, s, _ = make () in
  Sender.on_cnp s;
  Sender.on_cnp s;
  Alcotest.(check int) "cnps" 2 (Sender.cnps_received s)

let test_invalid_post () =
  let _, s, _ = make () in
  Alcotest.check_raises "zero bytes"
    (Invalid_argument "Sender.post: bytes must be positive") (fun () ->
      Sender.post s ~bytes:0 ~on_complete:(fun _ -> ()))

let () =
  Alcotest.run "sender"
    [
      ( "sending",
        [
          Alcotest.test_case "segmentation" `Quick test_segmentation;
          Alcotest.test_case "completion" `Quick test_completion_on_cumulative_ack;
          Alcotest.test_case "pacing" `Quick test_pacing_spacing;
          Alcotest.test_case "window" `Quick test_window_cap;
          Alcotest.test_case "multi message" `Quick test_multiple_messages_fifo;
          Alcotest.test_case "invalid post" `Quick test_invalid_post;
        ] );
      ( "retransmission",
        [
          Alcotest.test_case "sr nack" `Quick test_sr_nack_retransmits_exactly_epsn;
          Alcotest.test_case "duplicate nack" `Quick
            test_duplicate_nack_while_pending;
          Alcotest.test_case "nack advances una" `Quick test_nack_advances_una;
          Alcotest.test_case "gbn rewind" `Quick test_gbn_nack_rewinds;
          Alcotest.test_case "rto" `Quick test_rto_retransmits;
          Alcotest.test_case "rto cancelled" `Quick test_rto_cancelled_when_idle;
          Alcotest.test_case "stale nack" `Quick test_stale_nack_ignored;
          Alcotest.test_case "cnp" `Quick test_cnp_counted;
        ] );
    ]
