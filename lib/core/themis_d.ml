type decision = Forward | Block

type stats = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  data_seen : int;
}

type t = {
  mutable paths : int;
  compensation : bool;
  node : int;  (* owning ToR, for telemetry *)
  clock : unit -> Sim_time.t;  (* telemetry timestamps *)
  table : Flow_table.t;
  inject_nack :
    conn:Flow_id.t -> conn_id:int -> sport:int -> epsn:Psn.t -> unit;
  mutable nacks_seen : int;
  mutable nacks_blocked : int;
  mutable nacks_forwarded_valid : int;
  mutable nacks_forwarded_underflow : int;
  mutable compensation_sent : int;
  mutable compensation_cancelled : int;
  mutable data_seen : int;
}

let create ~paths ~queue_capacity ?(compensation = true) ~node ~clock
    ~inject_nack () =
  if paths <= 0 then invalid_arg "Themis_d.create: paths must be positive";
  {
    paths;
    compensation;
    node;
    clock;
    table = Flow_table.create ~queue_capacity;
    inject_nack;
    nacks_seen = 0;
    nacks_blocked = 0;
    nacks_forwarded_valid = 0;
    nacks_forwarded_underflow = 0;
    compensation_sent = 0;
    compensation_cancelled = 0;
    data_seen = 0;
  }

(* Telemetry: the registry carries the NACK-verdict breakdown the
   paper's evaluation reports; the event sink gets one typed event per
   decision so per-flow timelines can be reconstructed offline.  Label
   lists are constants and events are built behind the guard, so a
   disabled context costs no allocation. *)
let verdict_underflow = [ ("verdict", "underflow") ]
let verdict_valid = [ ("verdict", "valid") ]
let verdict_blocked = [ ("verdict", "blocked") ]
let comp_cancelled = [ ("action", "cancelled") ]
let comp_sent = [ ("action", "sent") ]

let tm_passed t (pkt : Packet.t) epsn ~underflow =
  if Telemetry.enabled () then begin
    Telemetry.incr_counter
      ~labels:(if underflow then verdict_underflow else verdict_valid)
      "themis_nacks";
    Telemetry.record ~time:(t.clock ())
      (Event.Nack_passed
         { node = t.node; conn = pkt.Packet.conn; epsn = Psn.to_int epsn;
           underflow })
  end

let tm_blocked t (pkt : Packet.t) epsn tpsn =
  if Telemetry.enabled () then begin
    Telemetry.incr_counter ~labels:verdict_blocked "themis_nacks";
    Telemetry.record ~time:(t.clock ())
      (Event.Nack_blocked
         { node = t.node; conn = pkt.Packet.conn; epsn = Psn.to_int epsn;
           tpsn = Psn.to_int tpsn })
  end

let tm_cancelled () =
  if Telemetry.enabled () then
    Telemetry.incr_counter ~labels:comp_cancelled "themis_compensation"

let tm_compensated t conn bepsn =
  if Telemetry.enabled () then begin
    Telemetry.incr_counter ~labels:comp_sent "themis_compensation";
    Telemetry.record ~time:(t.clock ())
      (Event.Nack_compensated
         { node = t.node; conn; epsn = Psn.to_int bepsn })
  end

let paths t = t.paths

let set_paths t paths =
  if paths <= 0 then invalid_arg "Themis_d.set_paths: paths must be positive";
  t.paths <- paths

let register_flow t flow = ignore (Flow_table.find_or_add t.table flow)

let check_compensation t (entry : Flow_table.entry) conn conn_id sport psn =
  if entry.Flow_table.valid then begin
    let bepsn = entry.Flow_table.bepsn in
    if Psn.equal psn bepsn then begin
      (* The blocked ePSN packet was merely late, not lost. *)
      entry.Flow_table.valid <- false;
      t.compensation_cancelled <- t.compensation_cancelled + 1;
      tm_cancelled ()
    end
    else if Psn.gt psn bepsn && Spray.same_path ~a:psn ~b:bepsn ~paths:t.paths
    then begin
      (* A later packet on BePSN's own path arrived: BePSN is lost.
         Generate the NACK the RNIC can no longer produce. *)
      entry.Flow_table.valid <- false;
      t.compensation_sent <- t.compensation_sent + 1;
      tm_compensated t conn bepsn;
      t.inject_nack ~conn ~conn_id ~sport ~epsn:bepsn
    end
  end

let on_data t (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Data { psn; _ } ->
      t.data_seen <- t.data_seen + 1;
      let entry =
        Flow_table.find_or_add_id t.table ~id:pkt.Packet.conn_id
          pkt.Packet.conn
      in
      if t.compensation then
        check_compensation t entry pkt.Packet.conn pkt.Packet.conn_id
          pkt.Packet.udp_sport psn;
      Psn_queue.push entry.Flow_table.queue psn
  | Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _ ->
      invalid_arg "Themis_d.on_data: not a data packet"

let on_nack t (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Nack { epsn } -> (
      t.nacks_seen <- t.nacks_seen + 1;
      let entry =
        Flow_table.find_or_add_id t.table ~id:pkt.Packet.conn_id
          pkt.Packet.conn
      in
      match Psn_queue.pop_until_greater entry.Flow_table.queue epsn with
      | -1 ->
          (* Cannot identify the trigger: err on the side of recovery. *)
          t.nacks_forwarded_underflow <- t.nacks_forwarded_underflow + 1;
          tm_passed t pkt epsn ~underflow:true;
          Forward
      | tpsn ->
          let tpsn = Psn.of_int tpsn in
          if Spray.nack_is_valid ~tpsn ~epsn ~paths:t.paths then begin
            t.nacks_forwarded_valid <- t.nacks_forwarded_valid + 1;
            tm_passed t pkt epsn ~underflow:false;
            Forward
          end
          else begin
            t.nacks_blocked <- t.nacks_blocked + 1;
            tm_blocked t pkt epsn tpsn;
            if t.compensation then
              if Psn_queue.contains entry.Flow_table.queue epsn then begin
                (* The expected packet already passed the ToR while this
                   NACK was in flight back from the NIC: it is on the last
                   hop right now, so nothing was lost and no compensation
                   may ever fire for it. *)
                entry.Flow_table.valid <- false;
                t.compensation_cancelled <- t.compensation_cancelled + 1;
                tm_cancelled ()
              end
              else begin
                entry.Flow_table.bepsn <- epsn;
                entry.Flow_table.valid <- true
              end;
            Block
          end)
  | Packet.Data _ | Packet.Ack _ | Packet.Cnp | Packet.Pause _ ->
      invalid_arg "Themis_d.on_nack: not a NACK packet"

let stats t =
  {
    nacks_seen = t.nacks_seen;
    nacks_blocked = t.nacks_blocked;
    nacks_forwarded_valid = t.nacks_forwarded_valid;
    nacks_forwarded_underflow = t.nacks_forwarded_underflow;
    compensation_sent = t.compensation_sent;
    compensation_cancelled = t.compensation_cancelled;
    data_seen = t.data_seen;
  }

let flow_table t = t.table

let queue_overwrites t =
  let acc = ref 0 in
  Flow_table.iter
    (fun _ e -> acc := !acc + Psn_queue.overwrites e.Flow_table.queue)
    t.table;
  !acc
