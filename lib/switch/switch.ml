type config = {
  lb : Lb_policy.t;
  ecn : Ecn.config option;
  per_port_cap : int;
  ecmp_shift : int;
}

let buffer_capacity = Memory_model.tofino_sram_bytes
let default_per_port_cap = 9 * 1024 * 1024

let default_config ~bw lb =
  {
    lb;
    ecn = Some (Ecn.scaled_to bw);
    per_port_cap = default_per_port_cap;
    ecmp_shift = 0;
  }

type t = {
  engine : Engine.t;
  topo : Topology.t;
  routing : Routing.t;
  node : int;
  mutable cfg : config;
  rng : Rng.t;
  pool : Buffer_pool.t;
  ports : (int, Port.t * int) Hashtbl.t;  (* link_id -> (port, peer) *)
  local_hosts : Bytes.t;  (* node id -> '\001' when an attached host *)
  (* Compiled forwarding fast path: per destination node, the candidate
     egress ports in [Routing.next_hops] order, resolved from link ids
     once (on first use after attach/recompute) so the steady-state
     [forward] indexes arrays with zero hashing.  An empty row is either
     not compiled yet or has no next hop; [compiled] tells the two apart,
     so an unreachable destination compiles once.  [fwd_gen] is the
     routing generation the rows were compiled against; a mismatch
     wipes them (link failure / restore; [attach_port] sets -1). *)
  next_ports : Port.t array array;
  (* Per-destination path-multiplicity rows (Routing.path_weights),
     compiled alongside [next_ports] and invalidated with them; consumed
     by the Spritz policy. *)
  next_weights : int array array;
  compiled : Bytes.t;  (* node id -> '\001' once its rows are compiled *)
  mutable fwd_gen : int;
  (* Reusable load closure for load-aware policies: [load_ports] is set
     to the current candidate row just before [Lb_policy.choose_at], so
     no closure is allocated per packet. *)
  mutable load_ports : Port.t array;
  mutable load_fn : int -> int;
  (* Per-flow spraying state for the stateful arena policies; acts only
     for flows whose sender is attached here (the source ToR). *)
  lb_state : Lb_state.t;
  mutable themis_s : Themis_s.t option;
  mutable themis_d : Themis_d.t option;
  mutable rx_packets : int;
  mutable forwarded : int;
  mutable dropped_buffer : int;
  mutable dropped_unreachable : int;
  mutable dropped_data : int;
  mutable ecn_marked : int;
  mutable nacks_blocked : int;
  (* Preformatted drop location and switch_dropped_packets labels. *)
  drop_loc : string;
  drop_labels : Metrics.labels;
}

let node_id t = t.node
let config t = t.cfg

(* Diagnostic: hashtable probes taken by the forwarding slow path (the
   per-destination compile after create / attach / recompute).  The
   steady-state fast path contains no probe — and so no counting code —
   at all; bench/engine_bench.ml asserts this stays flat once warm. *)
let slow_path_probes = ref 0
let forward_hash_probes () = !slow_path_probes

let record_drop t (pkt : Packet.t) reason =
  if Packet.is_data pkt then t.dropped_data <- t.dropped_data + 1;
  if Telemetry.enabled () then begin
    Telemetry.incr_counter ~labels:t.drop_labels "switch_dropped_packets";
    Telemetry.record ~time:(Engine.now t.engine)
      (Event.Packet_drop
         {
           loc = t.drop_loc;
           conn = pkt.Packet.conn;
           psn =
             (match pkt.Packet.kind with
             | Packet.Data { psn; _ } -> Psn.to_int psn
             | Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _ -> -1);
           reason;
         })
  end

let attach_port t ~link_id ~peer port =
  Hashtbl.replace t.ports link_id (port, peer);
  (* New wiring invalidates any rows compiled before this port existed:
     mark them stale so [candidate_ports] refills them once, on the
     first forward after the last attach. *)
  t.fwd_gen <- -1;
  let peer_is_host = Topology.is_host t.topo peer in
  if peer_is_host then Bytes.set t.local_hosts peer '\001';
  (* Release shared-buffer bytes as packets leave the queue; on the last
     hop towards a locally attached receiver this is also the moment the
     packet "leaves the ToR", when Themis-D records its PSN (and may emit
     a compensation NACK). *)
  Port.set_on_dequeue port (fun pkt ->
      Buffer_pool.release t.pool pkt.Packet.size;
      match t.themis_d with
      | Some d
        when peer_is_host && peer = pkt.Packet.dst_node && Packet.is_data pkt
        ->
          Themis_d.on_data d pkt
      | Some _ | None -> ());
  Port.set_on_discard port (fun pkt ->
      Buffer_pool.release t.pool pkt.Packet.size)

let set_themis t ~s ~d =
  t.themis_s <- s;
  t.themis_d <- d

let themis_d t = t.themis_d
let themis_s t = t.themis_s
let set_lb t lb = t.cfg <- { t.cfg with lb }

let port_to t ~peer =
  match Topology.link_between t.topo t.node peer with
  | None -> None
  | Some link_id -> (
      match Hashtbl.find_opt t.ports link_id with
      | Some (port, _) -> Some port
      | None -> None)

let is_local_host t node =
  node >= 0
  && node < Bytes.length t.local_hosts
  && Bytes.unsafe_get t.local_hosts node <> '\000'

(* Candidate next hops towards [dst] as an array of ports, in
   [Routing.next_hops] order ((peer, link_id) sorted by peer id — the
   stable path indexing shared with the PSN-spraying policy).  Cold
   path: resolve each link id to its port handle once; every later
   forward to [dst] indexes the compiled row directly.  Reads the
   candidates through the allocation-free accessors, so the compile
   allocates only the rows it stores. *)
let resolve_port t ~dst i =
  let link_id = Routing.next_hop_link t.routing ~node:t.node ~dst i in
  incr slow_path_probes;
  match Hashtbl.find t.ports link_id with
  | port, _ -> port
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Switch %d: no port attached for link %d (wiring bug)"
           t.node link_id)

let compile_ports t dst =
  let n = Routing.next_hop_count t.routing ~node:t.node ~dst in
  let ports =
    if n = 0 then [||]
    else begin
      let ports = Array.make n (resolve_port t ~dst 0) in
      for i = 1 to n - 1 do
        ports.(i) <- resolve_port t ~dst i
      done;
      ports
    end
  in
  t.next_ports.(dst) <- ports;
  t.next_weights.(dst) <- Routing.path_weights t.routing ~node:t.node ~dst;
  Bytes.set t.compiled dst '\001';
  ports

let candidate_ports t dst =
  let gen = Routing.generation t.routing in
  if gen <> t.fwd_gen then begin
    Array.fill t.next_ports 0 (Array.length t.next_ports) [||];
    Array.fill t.next_weights 0 (Array.length t.next_weights) [||];
    Bytes.fill t.compiled 0 (Bytes.length t.compiled) '\000';
    t.fwd_gen <- gen
  end;
  if dst >= 0 && dst < Array.length t.next_ports then
    let ports = Array.unsafe_get t.next_ports dst in
    if Array.length ports > 0 || Bytes.unsafe_get t.compiled dst <> '\000'
    then ports
    else compile_ports t dst
  else begin
    (* Out of range: not a host; [Routing.next_hop_count] raises the
       canonical invalid_arg without touching [next_ports]. *)
    ignore (Routing.next_hop_count t.routing ~node:t.node ~dst);
    assert false
  end

let compiled_next_ports t ~dst = candidate_ports t dst

let compiled_path_weights t ~dst =
  ignore (candidate_ports t dst);
  t.next_weights.(dst)

let enqueue_on t port (pkt : Packet.t) =
  if
    Buffer_pool.try_admit t.pool ~port_bytes:(Port.queue_bytes port)
      ~size:pkt.Packet.size
  then begin
    (match (t.cfg.ecn, pkt.Packet.kind) with
    | Some ecn_cfg, Packet.Data _ ->
        if
          pkt.Packet.ecn = Headers.Ect
          && Ecn.should_mark ecn_cfg t.rng ~queue_bytes:(Port.queue_bytes port)
        then begin
          pkt.Packet.ecn <- Headers.Ce;
          t.ecn_marked <- t.ecn_marked + 1;
          if Telemetry.enabled () then begin
            Telemetry.incr_counter "ecn_marks";
            Telemetry.record ~time:(Engine.now t.engine)
              (Event.Ecn_mark
                 {
                   node = t.node;
                   conn = pkt.Packet.conn;
                   queue_bytes = Port.queue_bytes port;
                 })
          end
        end
    | (Some _ | None), _ -> ());
    t.forwarded <- t.forwarded + 1;
    Port.enqueue port pkt
  end
  else begin
    t.dropped_buffer <- t.dropped_buffer + 1;
    record_drop t pkt Event.Buffer_full;
    Packet_pool.release pkt
  end

(* ACK/NACK-borne entropy echo: a control packet being forwarded to a
   locally attached host is returning to its flow's sender, i.e. this
   switch is the source ToR whose spraying state the echo feeds. *)
let policy_feedback t (pkt : Packet.t) =
  match (t.cfg.lb, pkt.Packet.kind) with
  | (Lb_policy.Reps | Lb_policy.Prime), (Packet.Ack _ | Packet.Nack _)
    when pkt.Packet.entropy_echo >= 0 && is_local_host t pkt.Packet.dst_node
    -> (
      match t.cfg.lb with
      | Lb_policy.Reps ->
          Lb_state.reps_feedback t.lb_state ~conn_id:pkt.Packet.conn_id
            ~entropy:pkt.Packet.entropy_echo ~ce:pkt.Packet.ecn_echo
      | _ ->
          Lb_state.prime_feedback t.lb_state ~conn_id:pkt.Packet.conn_id
            ~ce:pkt.Packet.ecn_echo)
  | _, _ -> ()

let forward t (pkt : Packet.t) =
  policy_feedback t pkt;
  let ports = candidate_ports t pkt.Packet.dst_node in
  let n = Array.length ports in
  if n = 0 then begin
    t.dropped_unreachable <- t.dropped_unreachable + 1;
    record_drop t pkt Event.Unreachable;
    Packet_pool.release pkt
  end
  else begin
    let idx =
      if n = 1 then 0
      else
        (* Themis-S sprays data packets entering the fabric here, i.e.
           packets whose sender is attached to this ToR. *)
        let themis_choice =
          match t.themis_s with
          | Some s when is_local_host t pkt.Packet.src_node -> (
              match Themis_s.mode s with
              | Themis_s.Direct_egress ->
                  let path = Themis_s.egress_index s pkt in
                  if path >= 0 then path mod n else -1
              | Themis_s.Sport_rewrite _ ->
                  Themis_s.apply s pkt;
                  -1)
          | Some _ | None -> -1
        in
        if themis_choice >= 0 then themis_choice
        else (
            t.load_ports <- ports;
            (* The stateful rivals act only at the flow's source ToR;
               everywhere else they degrade to ECMP hashing of the
               (possibly rewritten) entropy field inside [choose_at]. *)
            match t.cfg.lb with
            | (Lb_policy.Reps | Lb_policy.Prime | Lb_policy.Sprinklers)
              when is_local_host t pkt.Packet.src_node ->
                Lb_policy.choose_at ~shift:t.cfg.ecmp_shift ~state:t.lb_state
                  t.cfg.lb ~rng:t.rng ~pkt ~n ~load:t.load_fn
            | Lb_policy.Spritz when is_local_host t pkt.Packet.src_node ->
                Lb_policy.choose_at ~shift:t.cfg.ecmp_shift
                  ~weights:t.next_weights.(pkt.Packet.dst_node) t.cfg.lb
                  ~rng:t.rng ~pkt ~n ~load:t.load_fn
            | _ ->
                Lb_policy.choose_at ~shift:t.cfg.ecmp_shift t.cfg.lb ~rng:t.rng
                  ~pkt ~n ~load:t.load_fn)
    in
    enqueue_on t ports.(idx) pkt
  end

let process t (pkt : Packet.t) =
  (* NACKs emitted by a locally attached receiver NIC are validated by
     Themis-D before they may travel back to the sender. *)
  let blocked =
    match t.themis_d with
    | Some d when Packet.is_nack pkt && is_local_host t pkt.Packet.src_node
      -> (
        match Themis_d.on_nack d pkt with
        | Themis_d.Block ->
            t.nacks_blocked <- t.nacks_blocked + 1;
            true
        | Themis_d.Forward -> false)
    | Some _ | None -> false
  in
  (* A blocked NACK dies here: Themis-D has read all it needs, so this is
     a recycle point (DESIGN.md §10). *)
  if blocked then Packet_pool.release pkt else forward t pkt

let create ~engine ~topo ~routing ~node ~config ~rng =
  let t =
  {
    engine;
    topo;
    routing;
    node;
    cfg = config;
    rng;
    pool =
      Buffer_pool.create ~capacity:buffer_capacity
        ~per_port_cap:config.per_port_cap;
    ports = Hashtbl.create 8;
    local_hosts = Bytes.make (Topology.node_count topo) '\000';
    next_ports = Array.make (Topology.node_count topo) [||];
    next_weights = Array.make (Topology.node_count topo) [||];
    compiled = Bytes.make (Topology.node_count topo) '\000';
    fwd_gen = Routing.generation routing;
    load_ports = [||];
    load_fn = (fun _ -> 0);
    lb_state = Lb_state.create ();
    themis_s = None;
    themis_d = None;
    rx_packets = 0;
    forwarded = 0;
    dropped_buffer = 0;
    dropped_unreachable = 0;
    dropped_data = 0;
    ecn_marked = 0;
    nacks_blocked = 0;
    drop_loc = Printf.sprintf "sw%d" node;
    drop_labels = [ ("node", string_of_int node) ];
  }
  in
  t.load_fn <- (fun i -> Port.queue_bytes t.load_ports.(i));
  (* Register the row now so metric exports list it even at zero. *)
  if Telemetry.enabled () then
    Telemetry.add_counter ~labels:t.drop_labels "switch_dropped_packets" 0;
  t

let receive t pkt =
  t.rx_packets <- t.rx_packets + 1;
  process t pkt

let inject = forward

let rx_packets t = t.rx_packets
let forwarded_packets t = t.forwarded
let dropped_buffer t = t.dropped_buffer
let dropped_unreachable t = t.dropped_unreachable
let dropped_data_packets t = t.dropped_data
let ecn_marked t = t.ecn_marked
let nacks_intercept_blocked t = t.nacks_blocked
let buffer_pool t = t.pool
