type transport = [ `Sr | `Gbn | `Ideal ]

type config = {
  transport : transport;
  cnp_interval : Sim_time.t;
  cc : Dcqcn.config;
  line_rate : Rate.t;
}

let mtu = 1500
let window = 512
let rto = Sim_time.ms 1
let ack_coalesce = 4

let default_config ~line_rate =
  {
    transport = `Sr;
    cnp_interval = Sim_time.us 50;
    cc = Dcqcn.default;
    line_rate;
  }

type rctx = {
  r_conn_id : int;
  recv : Receiver.t;
  mutable last_cnp : Sim_time.t;
  r_conn : Flow_id.t;
  r_sport : int;
}

type t = {
  engine : Engine.t;
  node : int;
  cfg : config;
  mutable port : Port.t option;
  (* The one home of every QP: dense arrays indexed by [Packet.conn_id]
     (one array read per packet instead of a flow hash).  Slot [i] owns
     QP [i]; a slot with no QP of its own holds some other registered
     value, whose conn id then differs from the slot's index: the check
     needs no [option] box between the lookup and the QP. *)
  mutable senders_by_id : Sender.t array;
  mutable receivers_by_id : rctx array;
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
    senders_by_id = [||];
    receivers_by_id = [||];
    next_qpn = 1;
    on_data_tx = ignore;
    nacks_sent = 0;
    cnps_sent = 0;
    data_rx = 0;
  }

(* Store [v] at slot [id], growing the array to the largest registered
   id (ids are dense per run, so this is bounded by the number of live
   flows).  New slots are padded with [v] itself: its conn id is [id],
   so it never matches another slot's index. *)
let set_slot arr id v =
  let len = Array.length arr in
  let arr =
    if id < len then arr
    else begin
      let narr = Array.make (Stdlib.max (id + 1) (Stdlib.max 16 (2 * len))) v in
      Array.blit arr 0 narr 0 len;
      narr
    end
  in
  arr.(id) <- v;
  arr

let set_port t port = t.port <- Some port
let node t = t.node
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
  let ctx =
    {
      r_conn_id = conn_id;
      recv =
        Receiver.create ~mode:(receiver_mode t.cfg.transport) ~ack_coalesce;
      last_cnp = Sim_time.ns (-1_000_000_000);
      r_conn = conn;
      r_sport = sport;
    }
  in
  t.receivers_by_id <- set_slot t.receivers_by_id conn_id ctx

let maybe_cnp t (ctx : rctx) =
  let now = Engine.now t.engine in
  if Sim_time.diff now ctx.last_cnp >= t.cfg.cnp_interval then begin
    ctx.last_cnp <- now;
    t.cnps_sent <- t.cnps_sent + 1;
    if Telemetry.enabled () then Telemetry.incr_counter "cnps_sent";
    transmit_control t
      (Packet_pool.cnp ~conn:ctx.r_conn ~conn_id:ctx.r_conn_id
         ~sport:ctx.r_sport ~birth:now)
  end

(* QP dispatch by interned id: one array read per delivered packet; the
   miss paths (unknown QP: wiring bug, or a late packet for a torn-down
   QP) fall off the array or hit a slot holding another QP. *)
let unknown_qp t (pkt : Packet.t) =
  (* Unknown QP: a real NIC would answer with an error; in the
     simulator this indicates a wiring bug. *)
  failwith
    (Format.asprintf "Rnic %d: data for unknown QP %a" t.node Flow_id.pp
       pkt.Packet.conn)

(* Entropy echo (REPS): the ACK/NACK carries the udp_sport and CE mark
   of the data arrival that triggered it, so the source ToR can recycle
   clean entropies. *)
let echo (data : Packet.t) (ctl : Packet.t) =
  ctl.Packet.entropy_echo <- data.Packet.udp_sport;
  ctl.Packet.ecn_echo <- data.Packet.ecn = Headers.Ce;
  ctl

(* The receiver's reply to [pkt], built while [pkt] is still in hand.
   Top-level, like [echo]: a local closure would allocate on every data
   packet. *)
let reply t ctx (pkt : Packet.t) = function
  | Receiver.No_reply -> ()
  | Receiver.Ack ->
      transmit_control t
        (echo pkt
           (Packet_pool.ack ~conn:ctx.r_conn ~conn_id:ctx.r_conn_id
              ~psn:(Psn.of_int (Receiver.epsn ctx.recv))
              ~sport:ctx.r_sport ~birth:(Engine.now t.engine)))
  | Receiver.Nack ->
      t.nacks_sent <- t.nacks_sent + 1;
      transmit_control t
        (echo pkt
           (Packet_pool.nack ~conn:ctx.r_conn ~conn_id:ctx.r_conn_id
              ~epsn:(Psn.of_int (Receiver.epsn ctx.recv))
              ~sport:ctx.r_sport ~birth:(Engine.now t.engine)))

let on_data_packet t (pkt : Packet.t) psn payload last_of_msg =
  let id = pkt.Packet.conn_id in
  let ctx =
    if id < Array.length t.receivers_by_id then
      let ctx = Array.unsafe_get t.receivers_by_id id in
      if ctx.r_conn_id = id then ctx else unknown_qp t pkt
    else unknown_qp t pkt
  in
  if pkt.Packet.ecn = Headers.Ce then maybe_cnp t ctx;
  let seq = Psn.unwrap ~near:(Receiver.epsn ctx.recv) psn in
  reply t ctx pkt (Receiver.on_data ctx.recv ~seq ~payload ~last_of_msg)

(* ACK/NACK/CNP dispatch to the QP's sender.  A late control packet of
   a torn-down QP, or one whose id this NIC never registered, misses
   (off the array, or a slot holding another sender) and is dropped. *)
let on_control t (pkt : Packet.t) =
  let id = pkt.Packet.conn_id in
  if id < Array.length t.senders_by_id then begin
    let s = Array.unsafe_get t.senders_by_id id in
    if Sender.conn_id s = id then
      match pkt.Packet.kind with
      | Packet.Ack { psn } -> Sender.on_ack s psn
      | Packet.Nack { epsn } -> Sender.on_nack s epsn
      | Packet.Cnp -> Sender.on_cnp s
      | Packet.Data _ | Packet.Pause _ -> ()
  end

(* The RNIC is the end of a delivered packet's life: every field needed
   is read during dispatch, and no component downstream retains the
   record, so this is the pool's receiver-side recycle point
   (DESIGN.md §10). *)
let receive t (pkt : Packet.t) =
  (match pkt.Packet.kind with
  | Packet.Data { psn; payload; last_of_msg } ->
      t.data_rx <- t.data_rx + 1;
      on_data_packet t pkt psn payload last_of_msg
  | Packet.Ack _ | Packet.Nack _ | Packet.Cnp -> on_control t pkt
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
          Sender.mtu;
          mode = sender_mode t.cfg.transport;
          window;
          rto;
          cc = cc_config t.cfg;
        }
      ~line_rate:t.cfg.line_rate
      ~transmit:(fun pkt -> transmit_data t pkt)
  in
  t.senders_by_id <- set_slot t.senders_by_id (Sender.conn_id snd) snd;
  register_receiver dst ~conn ~sport;
  { nic = t; snd }

let post_send qp ~bytes ~on_complete = Sender.post qp.snd ~bytes ~on_complete
let qp_conn qp = Sender.conn qp.snd
let qp_rate qp = Sender.rate qp.snd
let qp_sender qp = qp.snd

(* --- Counters --------------------------------------------------------- *)

(* Fold over the slots an array owns (slot [i] holds QP [i]; any other
   slot is padding), in conn-id order. *)
let fold_owned id_of f acc arr =
  let acc = ref acc in
  for i = 0 to Array.length arr - 1 do
    let v = Array.unsafe_get arr i in
    if id_of v = i then acc := f !acc v
  done;
  !acc

let rctx_id ctx = ctx.r_conn_id

let sum_senders t f =
  fold_owned Sender.conn_id (fun acc s -> acc + f s) 0 t.senders_by_id

let sum_receivers t f =
  fold_owned rctx_id (fun acc ctx -> acc + f ctx.recv) 0 t.receivers_by_id

let data_packets_sent t = sum_senders t Sender.data_packets_sent
let retx_packets_sent t = sum_senders t Sender.retx_packets_sent
let nacks_received t = sum_senders t Sender.nacks_received
let nacks_sent t = t.nacks_sent
let cnps_sent t = t.cnps_sent
let delivered_bytes t = sum_receivers t Receiver.delivered_bytes
let ooo_arrivals t = sum_receivers t Receiver.ooo_arrivals

let senders t =
  List.rev (fold_owned Sender.conn_id (fun acc s -> s :: acc) [] t.senders_by_id)

let data_packets_received t = t.data_rx

let receiver t ~conn =
  match Flow_id.lookup_interned conn with
  | Some id when id < Array.length t.receivers_by_id ->
      let ctx = t.receivers_by_id.(id) in
      if Flow_id.equal ctx.r_conn conn then Some ctx.recv else None
  | Some _ | None -> None
