(* Allocation regression tests: the per-packet paths must stay off the
   minor heap once warm.  [Gc.minor_words] deltas are deterministic for a
   given build, so the bounds are exact or near-exact: a closure, a boxed
   float or an option built per packet shows up as whole words per
   packet and fails them. *)

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_probe_is_free () =
  Alcotest.(check (float 0.)) "empty span" 0. (words ignore)

(* One flow across the 2-spine motivation fabric under full Themis, with
   1 µs of last-hop jitter: PSN spraying and the jitter reorder it, so
   the receiver NACKs, the destination ToR blocks most of those NACKs and
   the rest reach the sender, which retransmits.  The first message warms
   the packet pool, the engine's queues and every per-flow table; the
   second message on the same QP then allocates only its own message
   record and, rarely, a packet the pool had not yet grown to. *)
let test_warm_flow () =
  Telemetry.disable ();
  let params =
    {
      (Network.default_params ~fabric:Leaf_spine.motivation
         ~scheme:(Network.Themis { compensation = true }))
      with
      Network.last_hop_jitter = Sim_time.us 1;
    }
  in
  let net = Network.build params in
  let dst = Leaf_spine.host (Network.fabric net) ~leaf:1 ~index:0 in
  let qp = Network.connect net ~src:0 ~dst in
  let bytes = 2_000_000 in
  let completed = ref 0 in
  let on_complete _ = incr completed in
  Rnic.post_send qp ~bytes ~on_complete;
  Network.run net;
  let blocked () =
    match Network.themis_totals net with
    | Some t -> t.Network.nacks_blocked
    | None -> 0
  in
  let sent0 = Network.total_data_packets net
  and retx0 = Network.total_retx_packets net
  and blocked0 = blocked () in
  let w =
    words (fun () ->
        Rnic.post_send qp ~bytes ~on_complete;
        Network.run net)
  in
  let pkts = Network.total_data_packets net - sent0 in
  Alcotest.(check int) "both messages complete" 2 !completed;
  Alcotest.(check bool) "NACKs blocked" true (blocked () - blocked0 > 0);
  Alcotest.(check bool) "packets retransmitted" true
    (Network.total_retx_packets net - retx0 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d data packets" w pkts)
    true
    (w /. float_of_int pkts < 0.05)

let conn = Flow_id.make ~src:1 ~dst:5 ~qpn:9

let set_psn (pkt : Packet.t) x =
  match pkt.Packet.kind with
  | Packet.Data d -> d.psn <- Psn.of_int x
  | Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _ -> assert false

let set_epsn (pkt : Packet.t) x =
  match pkt.Packet.kind with
  | Packet.Nack n -> n.epsn <- Psn.of_int x
  | Packet.Data _ | Packet.Ack _ | Packet.Cnp | Packet.Pause _ -> assert false

let arrive d data psn =
  set_psn data psn;
  Themis_d.on_data d data

let verdict d nack epsn =
  set_epsn nack epsn;
  ignore (Themis_d.on_nack d nack : Themis_d.decision)

(* One round over two paths yields every verdict and compensation
   outcome: a blocked NACK whose ePSN then arrives late (cancelled), a
   valid NACK, an underflow, and a blocked NACK whose loss a later
   same-path packet proves (compensation sent). *)
let themis_d_round d ~data ~nack base =
  arrive d data base;
  arrive d data (base + 1);
  arrive d data (base + 3);
  verdict d nack (base + 2);
  arrive d data (base + 2);
  arrive d data (base + 4);
  arrive d data (base + 6);
  verdict d nack (base + 4);
  verdict d nack (base + 7);
  arrive d data (base + 9);
  arrive d data (base + 11);
  verdict d nack (base + 10);
  arrive d data (base + 12)

let test_themis_d_verdicts () =
  Telemetry.disable ();
  let injected = ref 0 in
  let engine = Engine.create () in
  let d =
    Themis_d.create ~paths:2 ~queue_capacity:64 ~compensation:true ~node:3
      ~clock:(fun () -> Engine.now engine)
      ~inject_nack:(fun ~conn:_ ~conn_id:_ ~sport:_ ~epsn:_ -> incr injected)
      ()
  in
  let data =
    Packet.data ~conn ~sport:42 ~psn:Psn.zero ~payload:1000 ~last_of_msg:false
      ~birth:0 ()
  in
  let nack = Packet.nack ~conn ~sport:42 ~epsn:Psn.zero ~birth:0 in
  themis_d_round d ~data ~nack 0;
  let rounds = 100 in
  let w =
    words (fun () ->
        for i = 1 to rounds do
          themis_d_round d ~data ~nack (16 * i)
        done)
  in
  let s = Themis_d.stats d in
  let n = rounds + 1 in
  Alcotest.(check int) "blocked" (2 * n) s.Themis_d.nacks_blocked;
  Alcotest.(check int) "valid" n s.Themis_d.nacks_forwarded_valid;
  Alcotest.(check int) "underflow" n s.Themis_d.nacks_forwarded_underflow;
  Alcotest.(check int) "cancelled" n s.Themis_d.compensation_cancelled;
  Alcotest.(check int) "compensated" n s.Themis_d.compensation_sent;
  Alcotest.(check int) "injected" n !injected;
  Alcotest.(check (float 0.)) "words" 0. w

(* A sender with a full window and no ACKs: a burst of cumulative NACKs
   leaves one live retransmission queued behind stale ones, then the RTO
   fires and retransmits [una], again and again, each time cutting the
   DCQCN rate.  The first round warms the retransmission ring, the FIFOs
   and the event queue; the second must allocate nothing. *)
let test_sender_retx () =
  Telemetry.disable ();
  let engine = Engine.create () in
  let s =
    Sender.create ~engine ~conn ~sport:7
      ~config:
        {
          Sender.mtu = 1000;
          mode = Sender.Sr_retx;
          window = 64;
          rto = Sim_time.us 100;
          cc = Dcqcn.default;
        }
      ~line_rate:(Rate.gbps 100.) ~transmit:Packet_pool.release
  in
  Sender.post s ~bytes:1_000_000 ~on_complete:ignore;
  (* An option built once: [~until] would box a [Some] per call. *)
  let until = ref (Some (Sim_time.us 50)) in
  Engine.run ?until:!until engine;
  let round base =
    for i = base to base + 7 do
      Sender.on_nack s (Psn.of_int i)
    done;
    Engine.run ?until:!until engine
  in
  until := Some (Sim_time.ms 5);
  round 1;
  let retx0 = Sender.retx_packets_sent s and rto0 = Sender.timeouts s in
  until := Some (Sim_time.ms 10);
  let w = words (fun () -> round 9) in
  Alcotest.(check bool) "NACK and RTO retransmissions" true
    (Sender.retx_packets_sent s - retx0 > 1 && Sender.timeouts s - rto0 > 0);
  Alcotest.(check (float 0.)) "words" 0. w

let () =
  Alcotest.run "alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "probe is free" `Quick test_probe_is_free;
          Alcotest.test_case "warm themis flow" `Quick test_warm_flow;
          Alcotest.test_case "themis-d verdicts" `Quick test_themis_d_verdicts;
          Alcotest.test_case "sender nack/rto retx" `Quick test_sender_retx;
        ] );
    ]
