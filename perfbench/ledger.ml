(* The traced run's per-layer ledger, measured from outside the library.

   Every port's delivery callback is wrapped once, after [Network.build]
   and before the first packet is posted.  Switches forward with zero
   pipeline delay, so one wrapped delivery is exactly one synchronous
   [Switch.receive] or [Rnic.receive] call, and no delivery runs inside
   another (every hop goes back through the engine).  The span a layer
   gets is therefore its self time.  The layer is chosen per packet from
   the receiving node's kind and the packet's kind. *)

type layer =
  | Tor_rx_data
  | Tor_rx_ctrl
  | Spine_rx
  | Themis_d_nack
  | Rx_data
  | Rx_ack
  | Rx_nack
  | Rx_cnp
  | Connect

let layers =
  [
    (Tor_rx_data, "switch.tor_rx_data");
    (Spine_rx, "switch.spine_rx");
    (Tor_rx_ctrl, "switch.tor_rx_ctrl");
    (Themis_d_nack, "core.themis_d_nack");
    (Rx_data, "rnic.rx_data");
    (Rx_ack, "rnic.rx_ack");
    (Rx_nack, "rnic.rx_nack");
    (Rx_cnp, "rnic.rx_cnp");
    (Connect, "sim.connect");
  ]

let index = function
  | Tor_rx_data -> 0
  | Spine_rx -> 1
  | Tor_rx_ctrl -> 2
  | Themis_d_nack -> 3
  | Rx_data -> 4
  | Rx_ack -> 5
  | Rx_nack -> 6
  | Rx_cnp -> 7
  | Connect -> 8

let n_layers = List.length layers

type t = { calls : int array; ns : int array }

let create () = { calls = Array.make n_layers 0; ns = Array.make n_layers 0 }

(* Monotonic nanoseconds; the external is unboxed and [@@noalloc], so a
   span costs two clock reads and no allocation. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let add t layer ns =
  let i = index layer in
  t.calls.(i) <- t.calls.(i) + 1;
  t.ns.(i) <- t.ns.(i) + ns

let classify ~(src : Topology.node_kind) ~(dst : Topology.node_kind)
    (pkt : Packet.t) =
  match (dst, pkt.Packet.kind) with
  | Topology.Host, Packet.Data _ -> Rx_data
  | Topology.Host, Packet.Ack _ -> Rx_ack
  | Topology.Host, Packet.Nack _ -> Rx_nack
  (* PFC is off in every workload, so no Pause reaches a host. *)
  | Topology.Host, (Packet.Cnp | Packet.Pause _) -> Rx_cnp
  | Topology.Tor, Packet.Data _ -> Tor_rx_data
  (* A NACK entering a ToR from one of its own hosts is what Themis-D
     intercepts; one arriving from a spine is plain forwarding. *)
  | Topology.Tor, Packet.Nack _ when src = Topology.Host -> Themis_d_nack
  | Topology.Tor, _ -> Tor_rx_ctrl
  | (Topology.Spine | Topology.Agg), _ -> Spine_rx

let wrap_port t ~src ~dst port =
  let deliver = Port.deliver_fn port in
  Port.set_deliver port (fun pkt ->
      (* Read the kind before delivery: the receiver may recycle [pkt]. *)
      let layer = classify ~src ~dst pkt in
      let t0 = now_ns () in
      deliver pkt;
      add t layer (now_ns () - t0))

let wrap_ports t net =
  let topo = (Network.fabric net).Leaf_spine.topo in
  let kind n = (Topology.node topo n).Topology.kind in
  for link_id = 0 to Topology.link_count topo - 1 do
    match Network.link_ports_pair net ~link_id with
    | None -> ()
    | Some (a_to_b, b_to_a) ->
        let l = Topology.link topo link_id in
        let a = kind l.Topology.a and b = kind l.Topology.b in
        wrap_port t ~src:a ~dst:b a_to_b;
        wrap_port t ~src:b ~dst:a b_to_a
  done

let timed_connect t connect ~src ~dst =
  let t0 = now_ns () in
  let qp = connect ~src ~dst in
  add t Connect (now_ns () - t0);
  qp

let calls t layer = t.calls.(index layer)
let span_ns t layer = t.ns.(index layer)
let total_ns t = Array.fold_left ( + ) 0 t.ns

let merge ~into t =
  Array.iteri (fun i c -> into.calls.(i) <- into.calls.(i) + c) t.calls;
  Array.iteri (fun i n -> into.ns.(i) <- into.ns.(i) + n) t.ns
