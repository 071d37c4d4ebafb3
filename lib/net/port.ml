(* Per-packet fields first, so the enqueue / tx-done / propagate path
   reads one or two cache lines of the record; [queued] lets the idle
   test and [start_tx] skip both lane [Fifo] records while they are
   empty. *)
type t = {
  mutable up : bool;
  mutable busy : bool;
  mutable queued : int;  (* packets in both lanes *)
  mutable inject_drops : int;
  mutable deliver : Packet.t -> unit;
  engine : Engine.t;
  (* Closure-free events: one registered tx-completion/propagation
     callback pair per port; the packet rides the event's obj slot. *)
  mutable cb_tx_done : Engine.callback;
  mutable cb_propagate : Engine.callback;
  mutable bandwidth : Rate.t;
  delay : Sim_time.t;
  mutable jitter : (Rng.t * Sim_time.t) option;
  mutable on_dequeue : Packet.t -> unit;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable data_bytes : int;
  mutable ctrl_bytes : int;
  ctrl_queue : Packet.t Fifo.t;  (* ACK/NACK/CNP: strict priority *)
  data_queue : Packet.t Fifo.t;
  mutable on_discard : Packet.t -> unit;
  mutable dropped : int;
  mutable dropped_data : int;
  label : string;
}

let no_deliver (_ : Packet.t) =
  failwith "Port: deliver callback not set (missing set_deliver)"

(* Telemetry: one Packet_drop event per discarded packet, tagged with the
   port's label so drops are attributable to a link direction. *)
let record_drop t (pkt : Packet.t) reason =
  t.dropped <- t.dropped + 1;
  if Packet.is_data pkt then t.dropped_data <- t.dropped_data + 1;
  if Telemetry.enabled () then begin
    Telemetry.incr_counter ~labels:[ ("port", t.label) ] "port_dropped_packets";
    Telemetry.record ~time:(Engine.now t.engine)
      (Event.Packet_drop
         {
           loc = t.label;
           conn = pkt.Packet.conn;
           psn =
             (match pkt.Packet.kind with
             | Packet.Data { psn; _ } -> Psn.to_int psn
             | Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _ -> -1);
           reason;
         })
  end

let set_deliver t f = t.deliver <- f
let set_jitter t ~rng ~max = t.jitter <- Some (rng, max)

let set_on_dequeue t f = t.on_dequeue <- f
let set_on_discard t f = t.on_discard <- f

let rec start_tx t =
  if (not t.busy) && t.up && t.queued > 0 then begin
    t.queued <- t.queued - 1;
    if not (Fifo.is_empty t.ctrl_queue) then begin
      let pkt = Fifo.pop t.ctrl_queue in
      t.ctrl_bytes <- t.ctrl_bytes - pkt.Packet.size;
      transmit t pkt
    end
    else begin
      let pkt = Fifo.pop t.data_queue in
      t.data_bytes <- t.data_bytes - pkt.Packet.size;
      transmit t pkt
    end
  end

and transmit t pkt =
  t.on_dequeue pkt;
  t.busy <- true;
  let tx = Rate.tx_time t.bandwidth ~bytes_:pkt.Packet.size in
  ignore
    (Engine.schedule_call t.engine ~delay:tx t.cb_tx_done ~obj:(Obj.repr pkt))

and tx_done t (pkt : Packet.t) =
  t.busy <- false;
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
  if t.up then begin
    let extra =
      match t.jitter with
      | Some (rng, max) when max > 0 -> Rng.int rng (max + 1)
      | Some _ | None -> 0
    in
    ignore
      (Engine.schedule_call t.engine ~delay:(t.delay + extra) t.cb_propagate
         ~obj:(Obj.repr pkt))
  end
  else begin
    record_drop t pkt Event.Link_down;
    Packet_pool.release pkt
  end;
  start_tx t

and propagate t (pkt : Packet.t) =
  (* The link may have failed while the packet was propagating: such
     packets are lost on the wire and must be accounted as drops, or
     packet conservation breaks. *)
  if t.up then t.deliver pkt
  else begin
    record_drop t pkt Event.Link_down;
    Packet_pool.release pkt
  end

let create ~engine ~bandwidth ~delay ~label =
  let t =
    {
      up = true;
      busy = false;
      queued = 0;
      inject_drops = 0;
      deliver = no_deliver;
      engine;
      cb_tx_done = Engine.null_callback;
      cb_propagate = Engine.null_callback;
      bandwidth;
      delay;
      jitter = None;
      on_dequeue = ignore;
      tx_packets = 0;
      tx_bytes = 0;
      data_bytes = 0;
      ctrl_bytes = 0;
      ctrl_queue = Fifo.create ~capacity:16 ();
      data_queue = Fifo.create ~capacity:64 ();
      on_discard = ignore;
      dropped = 0;
      dropped_data = 0;
      label;
    }
  in
  t.cb_tx_done <-
    Engine.register_callback engine (fun obj -> tx_done t (Obj.obj obj));
  t.cb_propagate <-
    Engine.register_callback engine (fun obj -> propagate t (Obj.obj obj));
  (* Register the row now so metric exports list it even at zero. *)
  if Telemetry.enabled () then
    Telemetry.add_counter ~labels:[ ("port", label) ] "port_dropped_packets" 0;
  t

let inject_drops t n = t.inject_drops <- t.inject_drops + n

let enqueue t pkt =
  if not t.up then begin
    record_drop t pkt Event.Link_down;
    t.on_discard pkt;
    Packet_pool.release pkt
  end
  else if Packet.is_data pkt && t.inject_drops > 0 then begin
    t.inject_drops <- t.inject_drops - 1;
    record_drop t pkt Event.Injected;
    t.on_discard pkt;
    Packet_pool.release pkt
  end
  else if (not t.busy) && t.queued = 0 then
    (* Idle cut-through: [start_tx] would pop this very packet straight
       back, so skip the round trip through the lane. *)
    transmit t pkt
  else begin
    if Packet.is_data pkt then begin
      Fifo.push t.data_queue pkt;
      t.data_bytes <- t.data_bytes + pkt.Packet.size
    end
    else begin
      Fifo.push t.ctrl_queue pkt;
      t.ctrl_bytes <- t.ctrl_bytes + pkt.Packet.size
    end;
    t.queued <- t.queued + 1;
    start_tx t
  end

let queue_bytes t = t.data_bytes
let ctrl_queue_bytes t = t.ctrl_bytes
let queue_packets t = t.queued
let busy t = t.busy

let flush_discard t q =
  Fifo.drain q (fun pkt ->
      record_drop t pkt Event.Link_down;
      t.on_discard pkt;
      Packet_pool.release pkt)

let set_up t up =
  t.up <- up;
  if not up then begin
    flush_discard t t.ctrl_queue;
    flush_discard t t.data_queue;
    t.queued <- 0;
    t.data_bytes <- 0;
    t.ctrl_bytes <- 0
  end
  else start_tx t

let is_up t = t.up
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let dropped_packets t = t.dropped
let dropped_data_packets t = t.dropped_data
let bandwidth t = t.bandwidth

let set_bandwidth t r = t.bandwidth <- r

let label t = t.label
let deliver_fn t = t.deliver
let delay t = t.delay
