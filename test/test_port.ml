(* Egress port: serialization, propagation, priority, pause, failure. *)

let conn = Flow_id.make ~src:1 ~dst:2 ~qpn:1

let data ?(payload = 1500) psn =
  Packet.data ~conn ~sport:9 ~psn:(Psn.of_int psn) ~payload ~last_of_msg:false
    ~birth:0 ()

let ack () = Packet.ack ~conn ~sport:9 ~psn:Psn.zero ~birth:0

let make ?(bw = 100.) ?(delay = 1000) () =
  let engine = Engine.create () in
  let port =
    Port.create ~engine ~bandwidth:(Rate.gbps bw) ~delay ~label:"t"
  in
  let arrived = ref [] in
  Port.set_deliver port (fun pkt ->
      arrived := (Engine.now engine, pkt) :: !arrived);
  (engine, port, arrived)

let test_single_packet_timing () =
  let engine, port, arrived = make () in
  (* 1562 B at 100 Gbps = 125 ns serialization (wire size incl. headers),
     then 1000 ns propagation. *)
  Port.enqueue port (data 0);
  Engine.run engine;
  match !arrived with
  | [ (t, _) ] ->
      let expect = Rate.tx_time (Rate.gbps 100.) ~bytes_:(1500 + Headers.data_overhead) + 1000 in
      Alcotest.(check int) "arrival time" expect t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_fifo_order () =
  let engine, port, arrived = make () in
  for i = 0 to 9 do
    Port.enqueue port (data i)
  done;
  Engine.run engine;
  let psns =
    List.rev_map
      (fun (_, p) ->
        match p.Packet.kind with Packet.Data { psn; _ } -> Psn.to_int psn | _ -> -1)
      !arrived
  in
  Alcotest.(check (list int)) "in order" (List.init 10 Fun.id) psns

let test_serialization_spacing () =
  let engine, port, arrived = make ~delay:0 () in
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  Engine.run engine;
  match List.rev !arrived with
  | [ (t1, _); (t2, _) ] ->
      let tx = Rate.tx_time (Rate.gbps 100.) ~bytes_:(1500 + Headers.data_overhead) in
      Alcotest.(check int) "first" tx t1;
      Alcotest.(check int) "second spaced by serialization" (2 * tx) t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_set_bandwidth () =
  (* Packet 0 is already serializing at 100 Gb/s when the link is
     derated; packet 1, the same size, starts after and takes the
     serialization time at the new rate. *)
  let engine, port, arrived = make ~delay:0 () in
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  Port.set_bandwidth port (Rate.gbps 40.);
  Engine.run engine;
  let bytes_ = 1500 + Headers.data_overhead in
  match List.rev !arrived with
  | [ (t1, _); (t2, _) ] ->
      let tx100 = Rate.tx_time (Rate.gbps 100.) ~bytes_ in
      let tx40 = Rate.tx_time (Rate.gbps 40.) ~bytes_ in
      Alcotest.(check int) "in flight keeps old rate" tx100 t1;
      Alcotest.(check int) "next at new rate" (tx100 + tx40) t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_control_priority () =
  let engine, port, arrived = make ~delay:0 () in
  (* Enqueue lots of data, then an ACK: the ACK overtakes queued data. *)
  for i = 0 to 4 do
    Port.enqueue port (data i)
  done;
  Port.enqueue port (ack ());
  Engine.run engine;
  let kinds =
    List.rev_map
      (fun (_, p) -> if Packet.is_data p then "d" else "c")
      !arrived
  in
  (* Packet 0 is already serializing when the ACK arrives; the ACK goes
     next, before data 1..4. *)
  Alcotest.(check (list string)) "ack overtakes" [ "d"; "c"; "d"; "d"; "d"; "d" ] kinds

let test_queue_accounting () =
  let engine, port, _ = make () in
  ignore engine;
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  Port.enqueue port (ack ());
  (* Packet 0 started serializing immediately, leaving one data packet
     and one control packet queued. *)
  Alcotest.(check int) "data bytes" (1500 + Headers.data_overhead) (Port.queue_bytes port);
  Alcotest.(check int) "ctrl bytes" Headers.ack_bytes (Port.ctrl_queue_bytes port);
  Alcotest.(check int) "packets" 2 (Port.queue_packets port);
  Alcotest.(check bool) "busy" true (Port.busy port)

let test_link_down_drops () =
  let engine, port, arrived = make () in
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  let discards = ref 0 in
  Port.set_on_discard port (fun _ -> incr discards);
  Port.set_up port false;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !arrived);
  Alcotest.(check bool) "drops counted" true (Port.dropped_packets port >= 1);
  Alcotest.(check bool) "discard hook" true (!discards >= 1);
  (* New enqueues while down are dropped too. *)
  Port.enqueue port (data 2);
  Engine.run engine;
  Alcotest.(check int) "still nothing" 0 (List.length !arrived)

let test_inject_drops () =
  let engine, port, arrived = make ~delay:0 () in
  Port.inject_drops port 2;
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  Port.enqueue port (data 2);
  Port.enqueue port (ack ());
  Engine.run engine;
  (* Two data packets vanish; control is never dropped by injection. *)
  Alcotest.(check int) "one data + one ack" 2 (List.length !arrived);
  Alcotest.(check int) "dropped count" 2 (Port.dropped_packets port)

let test_on_dequeue_hook () =
  let engine, port, _ = make ~delay:0 () in
  let dequeued = ref 0 in
  Port.set_on_dequeue port (fun _ -> incr dequeued);
  Port.enqueue port (data 0);
  Port.enqueue port (data 1);
  Engine.run engine;
  Alcotest.(check int) "fired per packet" 2 !dequeued

let test_stats () =
  let engine, port, _ = make ~delay:0 () in
  Port.enqueue port (data 0);
  Port.enqueue port (ack ());
  Engine.run engine;
  Alcotest.(check int) "tx packets" 2 (Port.tx_packets port);
  Alcotest.(check int) "tx bytes"
    (1500 + Headers.data_overhead + Headers.ack_bytes)
    (Port.tx_bytes port);
  Alcotest.(check string) "label" "t" (Port.label port);
  Alcotest.(check (float 1.)) "bandwidth" 100. (Rate.to_gbps (Port.bandwidth port))

let test_jitter_delays_delivery () =
  let engine, port, arrived = make ~delay:1000 () in
  Port.set_jitter port ~rng:(Rng.create ~seed:3) ~max:500;
  for i = 0 to 19 do
    Port.enqueue port (data i)
  done;
  Engine.run engine;
  Alcotest.(check int) "all arrive" 20 (List.length !arrived);
  (* Every delivery is somewhere in [base, base + 500ns] after tx end. *)
  let tx = Rate.tx_time (Rate.gbps 100.) ~bytes_:(1500 + Headers.data_overhead) in
  let ok = ref true and saw_extra = ref false in
  List.iteri
    (fun i (t, _) ->
      (* Packets arrive newest-first in [arrived]. *)
      let idx = 19 - i in
      let base = ((idx + 1) * tx) + 1000 in
      if t < base || t > base + 500 then ok := false;
      if t > base then saw_extra := true)
    !arrived;
  Alcotest.(check bool) "within jitter bound" true !ok;
  Alcotest.(check bool) "jitter actually applied" true !saw_extra

let test_deliver_unset_fails () =
  let engine = Engine.create () in
  let port = Port.create ~engine ~bandwidth:(Rate.gbps 1.) ~delay:0 ~label:"x" in
  Port.enqueue port (data 0);
  Alcotest.check_raises "no deliver"
    (Failure "Port: deliver callback not set (missing set_deliver)") (fun () ->
      Engine.run engine)

(* Random schedules of enqueues and link flaps against a
   reference serializer.  The reference is the port without the idle
   cut-through: every packet is appended to its lane (control or data)
   and [start_tx] pops control first, each lane FIFO.  It replays the
   engine's (time, insertion) event order, and calls the dequeue hook
   before the serializer goes busy, as [Port.transmit] does.  Some
   enqueues arm that hook to enqueue one more packet on the same port
   when they leave the queue: with the port not yet busy, that is the
   one enqueue that can find an idle port with a non-empty lane, so a
   cut-through that skips either lane check reorders deliveries. *)
type kind = D of int | C  (* data with its payload, or an ACK *)

type op =
  | Enq of kind * kind option  (* the packet, and what its dequeue enqueues *)
  | Down
  | Up

let model_bw = Rate.gbps 100.
let model_delay = 700
let wire_size = function D p -> p + Headers.data_overhead | C -> Headers.ack_bytes

(* Observed after every operation and once more at the end. *)
type snap = {
  data_b : int;
  ctrl_b : int;
  pkts : int;
  busy_ : bool;
  txp : int;
  txb : int;
  drops : int;
  drops_d : int;
}

let snap_port p =
  {
    data_b = Port.queue_bytes p;
    ctrl_b = Port.ctrl_queue_bytes p;
    pkts = Port.queue_packets p;
    busy_ = Port.busy p;
    txp = Port.tx_packets p;
    txb = Port.tx_bytes p;
    drops = Port.dropped_packets p;
    drops_d = Port.dropped_data_packets p;
  }

(* Packet ids: op index for scheduled enqueues, 1000 + the trigger's id
   for hook enqueues. *)
let run_port sched =
  let engine = Engine.create () in
  let port = Port.create ~engine ~bandwidth:model_bw ~delay:model_delay ~label:"m" in
  let ids = Hashtbl.create 64 and hooks = Hashtbl.create 64 in
  let mk id kind =
    let p = match kind with D payload -> data ~payload id | C -> ack () in
    Hashtbl.replace ids p.Packet.uid id;
    p
  in
  let delivered = ref [] and snaps = ref [] in
  Port.set_deliver port (fun p ->
      delivered := (Engine.now engine, Hashtbl.find ids p.Packet.uid) :: !delivered);
  Port.set_on_dequeue port (fun p ->
      let id = Hashtbl.find ids p.Packet.uid in
      match Hashtbl.find_opt hooks id with
      | Some k -> Port.enqueue port (mk (1000 + id) k)
      | None -> ());
  List.iteri
    (fun i (time, op) ->
      ignore
        (Engine.schedule_at engine ~time (fun () ->
             (match op with
             | Enq (k, hook) ->
                 Option.iter (Hashtbl.replace hooks i) hook;
                 Port.enqueue port (mk i k)
             | Down -> Port.set_up port false
             | Up -> Port.set_up port true);
             snaps := snap_port port :: !snaps)))
    sched;
  Engine.run engine;
  (List.rev !delivered, List.rev (snap_port port :: !snaps))

type mpkt = { id : int; kind : kind; hook : kind option }
type ev = Op of int * op | Tx_done of mpkt | Arrive of mpkt

let run_model sched =
  let events = ref [] and seq = ref 0 and now = ref 0 in
  let schedule time ev =
    let rec ins = function
      | ((t, _, _) as e) :: rest when t <= time -> e :: ins rest
      | l -> (time, !seq, ev) :: l
    in
    events := ins !events;
    incr seq
  in
  let ctrl = Queue.create () and dataq = Queue.create () in
  let busy = ref false and up = ref true in
  let txp = ref 0 and txb = ref 0 and drops = ref 0 and drops_d = ref 0 in
  let delivered = ref [] and snaps = ref [] in
  let is_data p = match p.kind with D _ -> true | C -> false in
  let lane_bytes q = Queue.fold (fun a p -> a + wire_size p.kind) 0 q in
  let snap () =
    {
      data_b = lane_bytes dataq;
      ctrl_b = lane_bytes ctrl;
      pkts = Queue.length ctrl + Queue.length dataq;
      busy_ = !busy;
      txp = !txp;
      txb = !txb;
      drops = !drops;
      drops_d = !drops_d;
    }
  in
  let drop p =
    incr drops;
    if is_data p then incr drops_d
  in
  let rec start_tx () =
    if (not !busy) && !up then
      if not (Queue.is_empty ctrl) then transmit (Queue.pop ctrl)
      else if not (Queue.is_empty dataq) then transmit (Queue.pop dataq)
  and transmit p =
    Option.iter (fun k -> enqueue { id = 1000 + p.id; kind = k; hook = None }) p.hook;
    busy := true;
    schedule (!now + Rate.tx_time model_bw ~bytes_:(wire_size p.kind)) (Tx_done p)
  and enqueue p =
    if not !up then drop p
    else begin
      Queue.push p (if is_data p then dataq else ctrl);
      start_tx ()
    end
  in
  List.iteri (fun i (time, op) -> schedule time (Op (i, op))) sched;
  let rec loop () =
    match !events with
    | [] -> ()
    | (time, _, ev) :: rest ->
        events := rest;
        now := time;
        (match ev with
        | Op (i, op) ->
            (match op with
            | Enq (kind, hook) -> enqueue { id = i; kind; hook }
            | Down ->
                up := false;
                Queue.iter drop ctrl;
                Queue.iter drop dataq;
                Queue.clear ctrl;
                Queue.clear dataq
            | Up ->
                up := true;
                start_tx ());
            snaps := snap () :: !snaps
        | Tx_done p ->
            busy := false;
            incr txp;
            txb := !txb + wire_size p.kind;
            if !up then schedule (time + model_delay) (Arrive p) else drop p;
            start_tx ()
        | Arrive p -> if !up then delivered := (time, p.id) :: !delivered else drop p);
        loop ()
  in
  loop ();
  (List.rev !delivered, List.rev (snap () :: !snaps))

let kind_gen =
  QCheck.Gen.(
    frequency [ (2, map (fun p -> D p) (oneofl [ 64; 512; 1500 ])); (1, return C) ])

let sched_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (int_range 0 3_000)
         (frequency
            [
              (8, map2 (fun k h -> Enq (k, h)) kind_gen (opt kind_gen));
              (1, return Down);
              (1, return Up);
            ])))

let sched_print sched =
  let kind = function D p -> Printf.sprintf "D%d" p | C -> "C" in
  String.concat "; "
    (List.map
       (fun (t, op) ->
         Printf.sprintf "%d:%s" t
           (match op with
           | Enq (k, None) -> kind k
           | Enq (k, Some h) -> kind k ^ ">" ^ kind h
           | Down -> "down"
           | Up -> "up"))
       sched)

let prop_serializer_model =
  QCheck.Test.make ~name:"model: strict-priority FIFO serializer" ~count:1000
    (QCheck.make ~print:sched_print sched_gen)
    (fun sched -> run_port sched = run_model sched)

let () =
  Alcotest.run "port"
    [
      ( "timing",
        [
          Alcotest.test_case "single packet" `Quick test_single_packet_timing;
          Alcotest.test_case "fifo" `Quick test_fifo_order;
          Alcotest.test_case "serialization spacing" `Quick test_serialization_spacing;
          Alcotest.test_case "set bandwidth" `Quick test_set_bandwidth;
          Alcotest.test_case "control priority" `Quick test_control_priority;
        ] );
      ( "state",
        [
          Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
          Alcotest.test_case "link down" `Quick test_link_down_drops;
          Alcotest.test_case "inject drops" `Quick test_inject_drops;
          Alcotest.test_case "dequeue hook" `Quick test_on_dequeue_hook;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "jitter" `Quick test_jitter_delays_delivery;
          Alcotest.test_case "unset deliver" `Quick test_deliver_unset_fails;
          QCheck_alcotest.to_alcotest prop_serializer_model;
        ] );
    ]
