type themis_totals = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  queue_overwrites : int;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  routing : Routing.t;
  switches : (int, Switch.t) Hashtbl.t;
  nics : Rnic.t array;  (* indexed by host node id (hosts are numbered first) *)
  link_ports : (int, Port.t * Port.t) Hashtbl.t;
  tor_of_host : int -> int;
  sampler : Sampler.t option;
  mutable themis_ds : Themis_d.t list;
  mutable themis_ss : Themis_s.t list;
}

(* The run boundary (see the .mli): only state that can steer or label
   a run.  The packet pool and the telemetry context stay. *)
let create ~engine ~topo ~routing ~nics ~tor_of_host ?sampler () =
  Packet.reset_uid_counter ();
  Flow_id.reset_interner ();
  Lb_state.reset_globals ();
  {
    engine;
    topo;
    routing;
    switches = Hashtbl.create 64;
    nics;
    link_ports = Hashtbl.create 64;
    tor_of_host;
    sampler;
    themis_ds = [];
    themis_ss = [];
  }

let add_switch t ~rng ~node config =
  Hashtbl.replace t.switches node
    (Switch.create ~engine:t.engine ~topo:t.topo ~routing:t.routing ~node
       ~config ~rng:(Rng.split rng))

let engine t = t.engine
let routing t = t.routing
let nic t ~host = t.nics.(host)
let switch t ~node = Hashtbl.find t.switches node
let nics_list t = Array.to_list t.nics
let link_ports_pair t ~link_id = Hashtbl.find_opt t.link_ports link_id

(* All switches, by ascending node id — a deterministic order for
   oracle sweeps. *)
let switches_list t =
  Hashtbl.fold (fun node sw acc -> (node, sw) :: acc) t.switches []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let iter_ports t f =
  for link_id = 0 to Topology.link_count t.topo - 1 do
    match Hashtbl.find_opt t.link_ports link_id with
    | None -> ()
    | Some (pab, pba) ->
        f pab;
        f pba
  done

(* Ring sizing from the last-hop RTT bound: two propagation delays plus
   a data and a control serialization time (control packets ride the
   priority lane, so no data-queueing term enters). *)
let last_hop_rtt ~bw ~link_delay ~mtu =
  (2 * link_delay)
  + Rate.tx_time bw ~bytes_:(mtu + Headers.data_overhead)
  + Rate.tx_time bw ~bytes_:Headers.ack_bytes

let install_themis t ~tors ~paths ~mode ~compensation ~bw ~link_delay ~mtu
    ~factor =
  let queue_capacity =
    Psn_queue.capacity_for ~bw
      ~rtt:(last_hop_rtt ~bw ~link_delay ~mtu)
      ~mtu:(mtu + Headers.data_overhead) ~factor
  in
  Array.iter
    (fun tor ->
      let sw = switch t ~node:tor in
      let themis_s = Themis_s.create ~paths ~mode in
      let themis_d =
        Themis_d.create ~paths ~queue_capacity ~compensation ~node:tor
          ~clock:(fun () -> Engine.now t.engine)
          ~inject_nack:(fun ~conn ~conn_id ~sport ~epsn ->
            Switch.inject sw
              (Packet_pool.nack ~conn ~conn_id ~sport ~epsn
                 ~birth:(Engine.now t.engine)))
          ()
      in
      t.themis_ds <- themis_d :: t.themis_ds;
      t.themis_ss <- themis_s :: t.themis_ss;
      Switch.set_themis sw ~s:(Some themis_s) ~d:(Some themis_d))
    tors

let wire ?jitter t =
  let topo = t.topo in
  (* The delivery target is resolved here, once per port, so per-packet
     delivery is a direct call instead of a hashtable lookup per hop. *)
  let deliver_to node =
    if Topology.is_host topo node then begin
      let nic = t.nics.(node) in
      fun pkt -> Rnic.receive nic pkt
    end
    else begin
      let sw = switch t ~node in
      fun pkt -> Switch.receive sw pkt
    end
  in
  for link_id = 0 to Topology.link_count topo - 1 do
    let link = Topology.link topo link_id in
    let make_dir src dst =
      let port =
        Port.create ~engine:t.engine ~bandwidth:link.Topology.bandwidth
          ~delay:link.Topology.delay
          ~label:(Printf.sprintf "%d->%d" src dst)
      in
      Port.set_deliver port (deliver_to dst);
      (if Topology.is_host topo src then begin
         Rnic.set_port t.nics.(src) port;
         match jitter with
         | Some (rng, max) -> Port.set_jitter port ~rng:(Rng.split rng) ~max
         | None -> ()
       end
       else Switch.attach_port (switch t ~node:src) ~link_id ~peer:dst port);
      port
    in
    let pab = make_dir link.Topology.a link.Topology.b in
    let pba = make_dir link.Topology.b link.Topology.a in
    Hashtbl.replace t.link_ports link_id (pab, pba)
  done;
  match t.sampler with
  | None -> ()
  | Some s ->
      (* Probe registration order feeds the engine's event stream:
         iterate links in id order, not hashtable order, so two builds
         of the same params schedule byte-identical runs. *)
      for link_id = 0 to Topology.link_count topo - 1 do
        let pab, pba = Hashtbl.find t.link_ports link_id in
        List.iter
          (fun p ->
            Sampler.add_probe s ~name:"port_queue_bytes"
              ~labels:[ ("port", Port.label p) ]
              ~histogram:"port_queue_bytes_dist" (fun () ->
                float_of_int (Port.queue_bytes p)))
          [ pab; pba ]
      done;
      Sampler.start s

let connect t ~src ~dst =
  let qp = Rnic.connect t.nics.(src) ~dst:t.nics.(dst) in
  (* Handshake interception: the destination ToR learns the QP. *)
  (match Switch.themis_d (switch t ~node:(t.tor_of_host dst)) with
  | Some d -> Themis_d.register_flow d (Rnic.qp_conn qp)
  | None -> ());
  (match t.sampler with
  | Some s ->
      let sender = Rnic.qp_sender qp in
      Sampler.add_probe s ~name:"qp_inflight_bytes"
        ~labels:
          [ ("conn", Format.asprintf "%a" Flow_id.pp (Rnic.qp_conn qp)) ]
        ~histogram:"qp_inflight_bytes_dist" (fun () ->
          float_of_int (Sender.outstanding sender * Rnic.mtu))
  | None -> ());
  qp

let themis_totals t =
  match t.themis_ds with
  | [] -> None
  | ds ->
      let z =
        {
          nacks_seen = 0;
          nacks_blocked = 0;
          nacks_forwarded_valid = 0;
          nacks_forwarded_underflow = 0;
          compensation_sent = 0;
          compensation_cancelled = 0;
          queue_overwrites = 0;
        }
      in
      Some
        (List.fold_left
           (fun acc d ->
             let s = Themis_d.stats d in
             {
               nacks_seen = acc.nacks_seen + s.Themis_d.nacks_seen;
               nacks_blocked = acc.nacks_blocked + s.Themis_d.nacks_blocked;
               nacks_forwarded_valid =
                 acc.nacks_forwarded_valid + s.Themis_d.nacks_forwarded_valid;
               nacks_forwarded_underflow =
                 acc.nacks_forwarded_underflow
                 + s.Themis_d.nacks_forwarded_underflow;
               compensation_sent =
                 acc.compensation_sent + s.Themis_d.compensation_sent;
               compensation_cancelled =
                 acc.compensation_cancelled + s.Themis_d.compensation_cancelled;
               queue_overwrites =
                 acc.queue_overwrites + Themis_d.queue_overwrites d;
             })
           z ds)

let set_themis_paths t n =
  List.iter (fun s -> Themis_s.set_paths s n) t.themis_ss;
  List.iter (fun d -> Themis_d.set_paths d n) t.themis_ds

let sprayed_packets t =
  List.fold_left (fun acc s -> acc + Themis_s.sprayed_packets s) 0 t.themis_ss

let sum_nics t f = Array.fold_left (fun acc nic -> acc + f nic) 0 t.nics
let sum_switches t f = Hashtbl.fold (fun _ sw acc -> acc + f sw) t.switches 0
