type transport = [ `Sr | `Gbn | `Ideal ]

type config = {
  mtu : int;
  transport : transport;
  window : int;
  rto : Sim_time.t;
  ack_coalesce : int;
  cnp_interval : Sim_time.t;
  cc : Dcqcn.config;
  line_rate : Rate.t;
}

let default_config ~line_rate =
  {
    mtu = 1500;
    transport = `Sr;
    window = 512;
    rto = Sim_time.ms 1;
    ack_coalesce = 4;
    cnp_interval = Sim_time.us 50;
    cc = Dcqcn.default;
    line_rate;
  }

type rctx = {
  recv : Receiver.t;
  r_conn : Flow_id.t;
  r_conn_id : int;
  r_sport : int;
  (* Entropy echo (REPS): the udp_sport / CE mark of the most recent
     data arrival, copied onto the ACK/NACK it triggers so the source
     ToR can recycle clean entropies. *)
  r_last_entropy : int ref;
  r_last_ce : bool ref;
  mutable last_cnp : Sim_time.t;
  mutable cnps_tx : int;
}

type t = {
  engine : Engine.t;
  node : int;
  cfg : config;
  mutable port : Port.t option;
  (* Hashed maps for registration and aggregate folds; per-packet
     dispatch goes through the dense by-id arrays below, indexed by
     [Packet.conn_id] (one array read instead of a flow hash). *)
  senders : Sender.t Flow_id.Table.t;
  receivers : rctx Flow_id.Table.t;
  mutable senders_by_id : Sender.t option array;
  mutable receivers_by_id : rctx option array;
  mutable next_qpn : int;
  mutable on_data_tx : Packet.t -> unit;
  mutable nacks_sent : int;
  mutable cnps_sent : int;
  mutable data_rx : int;
}

type qp = { nic : t; snd : Sender.t }

let create ~engine ~node ~config =
  {
    engine;
    node;
    cfg = config;
    port = None;
    senders = Flow_id.Table.create 16;
    receivers = Flow_id.Table.create 16;
    senders_by_id = [||];
    receivers_by_id = [||];
    next_qpn = 1;
    on_data_tx = ignore;
    nacks_sent = 0;
    cnps_sent = 0;
    data_rx = 0;
  }

(* Slot arrays sized to the largest registered id; ids are dense per
   run, so this is bounded by the number of live flows. *)
let grow_slots arr id =
  let len = Array.length arr in
  if id < len then arr
  else begin
    let narr = Array.make (Stdlib.max (id + 1) (Stdlib.max 16 (2 * len))) None in
    Array.blit arr 0 narr 0 len;
    narr
  end

let set_port t port = t.port <- Some port
let node t = t.node
let config t = t.cfg
let set_on_data_tx t f = t.on_data_tx <- f

let port_exn t =
  match t.port with
  | Some p -> p
  | None -> failwith "Rnic: port not wired (missing set_port)"

let transmit_data t pkt =
  t.on_data_tx pkt;
  Port.enqueue (port_exn t) pkt

let transmit_control t pkt = Port.enqueue (port_exn t) pkt

(* --- Receive side --------------------------------------------------- *)

let receiver_mode = function
  | `Sr -> Receiver.Sr
  | `Gbn -> Receiver.Gbn
  | `Ideal -> Receiver.Ideal

let register_receiver t ~conn ~sport =
  let conn_id = Flow_id.intern conn in
  let last_entropy = ref (-1) and last_ce = ref false in
  let echo pkt =
    pkt.Packet.entropy_echo <- !last_entropy;
    pkt.Packet.ecn_echo <- !last_ce;
    pkt
  in
  let ctx =
    {
        recv =
          Receiver.create
            ~mode:(receiver_mode t.cfg.transport)
            ~ack_coalesce:t.cfg.ack_coalesce
            ~actions:
              {
                Receiver.send_ack =
                  (fun ~epsn ->
                    transmit_control t
                      (echo
                         (Packet_pool.ack ~conn ~conn_id ~psn:(Psn.of_int epsn)
                            ~sport ~birth:(Engine.now t.engine))));
                Receiver.send_nack =
                  (fun ~epsn ->
                    t.nacks_sent <- t.nacks_sent + 1;
                    transmit_control t
                      (echo
                         (Packet_pool.nack ~conn ~conn_id
                            ~epsn:(Psn.of_int epsn) ~sport
                            ~birth:(Engine.now t.engine))));
                Receiver.deliver = (fun ~bytes:_ -> ());
              };
      r_conn = conn;
      r_conn_id = conn_id;
      r_sport = sport;
      r_last_entropy = last_entropy;
      r_last_ce = last_ce;
      last_cnp = Sim_time.ns (-1_000_000_000);
      cnps_tx = 0;
    }
  in
  Flow_id.Table.replace t.receivers conn ctx;
  t.receivers_by_id <- grow_slots t.receivers_by_id conn_id;
  t.receivers_by_id.(conn_id) <- Some ctx;
  ctx

let maybe_cnp t (ctx : rctx) =
  let now = Engine.now t.engine in
  if Sim_time.diff now ctx.last_cnp >= t.cfg.cnp_interval then begin
    ctx.last_cnp <- now;
    ctx.cnps_tx <- ctx.cnps_tx + 1;
    t.cnps_sent <- t.cnps_sent + 1;
    if Telemetry.enabled () then Telemetry.incr_counter "cnps_sent";
    transmit_control t
      (Packet_pool.cnp ~conn:ctx.r_conn ~conn_id:ctx.r_conn_id
         ~sport:ctx.r_sport ~birth:now)
  end

(* QP dispatch by interned id: one array read per delivered packet; the
   miss paths (unknown QP: wiring bug, or a late packet for a torn-down
   QP) fall off the array or hit an empty slot. *)
let unknown_qp t (pkt : Packet.t) =
  (* Unknown QP: a real NIC would answer with an error; in the
     simulator this indicates a wiring bug. *)
  failwith
    (Format.asprintf "Rnic %d: data for unknown QP %a" t.node Flow_id.pp
       pkt.Packet.conn)

let on_data_packet t (pkt : Packet.t) psn payload last_of_msg =
  let id = pkt.Packet.conn_id in
  let ctx =
    if id < Array.length t.receivers_by_id then
      match Array.unsafe_get t.receivers_by_id id with
      | Some ctx -> ctx
      | None -> unknown_qp t pkt
    else unknown_qp t pkt
  in
  if pkt.Packet.ecn = Headers.Ce then maybe_cnp t ctx;
  (* Stash the echo before on_data: ACK/NACK closures fire synchronously
     inside it and must carry this packet's entropy. *)
  ctx.r_last_entropy := pkt.Packet.udp_sport;
  ctx.r_last_ce := pkt.Packet.ecn = Headers.Ce;
  let seq = Psn.unwrap ~near:(Receiver.epsn ctx.recv) psn in
  Receiver.on_data ctx.recv ~seq ~payload ~last_of_msg

(* [None] for a late control packet of a torn-down QP: dropped.  The
   caller matches on the result and calls the handler directly, so no
   closure is built per ACK/NACK/CNP. *)
let sender_of t (pkt : Packet.t) =
  let id = pkt.Packet.conn_id in
  if id < Array.length t.senders_by_id then Array.unsafe_get t.senders_by_id id
  else None

(* The RNIC is the end of a delivered packet's life: every field needed
   is read during dispatch, and no component downstream retains the
   record, so this is the pool's receiver-side recycle point
   (DESIGN.md §10). *)
let receive t (pkt : Packet.t) =
  (match pkt.Packet.kind with
  | Packet.Data { psn; payload; last_of_msg } ->
      t.data_rx <- t.data_rx + 1;
      on_data_packet t pkt psn payload last_of_msg
  | Packet.Ack { psn } -> (
      match sender_of t pkt with Some s -> Sender.on_ack s psn | None -> ())
  | Packet.Nack { epsn } -> (
      match sender_of t pkt with Some s -> Sender.on_nack s epsn | None -> ())
  | Packet.Cnp -> (
      match sender_of t pkt with Some s -> Sender.on_cnp s | None -> ())
  | Packet.Pause _ -> ());
  Packet_pool.release pkt

(* --- Connection setup ------------------------------------------------ *)

let sender_mode = function
  | `Sr | `Ideal -> Sender.Sr_retx
  | `Gbn -> Sender.Gbn_retx

let cc_config cfg =
  match cfg.transport with
  | `Ideal -> { cfg.cc with Dcqcn.nack_slow_start = false }
  | `Sr | `Gbn -> cfg.cc

let connect t ~dst =
  let qpn = t.next_qpn in
  t.next_qpn <- t.next_qpn + 1;
  let conn = Flow_id.make ~src:t.node ~dst:dst.node ~qpn in
  let sport = 0x8000 lor (Ecmp_hash.mix (Flow_id.hash conn) land 0x7FFF) in
  let snd =
    Sender.create ~engine:t.engine ~conn ~sport
      ~config:
        {
          Sender.mtu = t.cfg.mtu;
          mode = sender_mode t.cfg.transport;
          window = t.cfg.window;
          rto = t.cfg.rto;
          cc = cc_config t.cfg;
        }
      ~line_rate:t.cfg.line_rate
      ~transmit:(fun pkt -> transmit_data t pkt)
  in
  Flow_id.Table.replace t.senders conn snd;
  let conn_id = Flow_id.intern conn in
  t.senders_by_id <- grow_slots t.senders_by_id conn_id;
  t.senders_by_id.(conn_id) <- Some snd;
  ignore (register_receiver dst ~conn ~sport);
  { nic = t; snd }

let post_send qp ~bytes ~on_complete = Sender.post qp.snd ~bytes ~on_complete
let qp_conn qp = Sender.conn qp.snd
let qp_rate qp = Sender.rate qp.snd
let qp_sender qp = qp.snd

(* --- Counters --------------------------------------------------------- *)

let sum_senders t f =
  Flow_id.Table.fold (fun _ s acc -> acc + f s) t.senders 0

let data_packets_sent t = sum_senders t Sender.data_packets_sent
let retx_packets_sent t = sum_senders t Sender.retx_packets_sent
let nacks_received t = sum_senders t Sender.nacks_received
let nacks_sent t = t.nacks_sent
let cnps_sent t = t.cnps_sent

let delivered_bytes t =
  Flow_id.Table.fold
    (fun _ ctx acc -> acc + Receiver.delivered_bytes ctx.recv)
    t.receivers 0

let senders t = Flow_id.Table.fold (fun _ s acc -> s :: acc) t.senders []

let data_packets_received t = t.data_rx

let receivers t =
  Flow_id.Table.fold (fun conn ctx acc -> (conn, ctx.recv) :: acc) t.receivers []

let ooo_arrivals t =
  Flow_id.Table.fold
    (fun _ ctx acc -> acc + Receiver.ooo_arrivals ctx.recv)
    t.receivers 0

let receiver t ~conn =
  Option.map (fun ctx -> ctx.recv) (Flow_id.Table.find_opt t.receivers conn)
