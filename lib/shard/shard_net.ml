(* Interlink lowering: every fabric link's propagation is routed through
   a ring, including links whose two ends live on the same shard.

   Uniformity is what makes the result invariant in the shard count: a
   propagation is always (1) stamped at tx-done time with a canonical
   key, (2) parked in a ring, (3) drained at the next window barrier,
   sorted by that key, and scheduled into the consumer's engine.  The
   canonical key is

     (arrival time, tx-done tick, directed-port id, per-port sequence)

   — every component is computable on the producing shard alone and is
   identical whatever the partition, so 1-, 2- and 4-shard runs schedule
   byte-identical event sequences.  The serial engine's insertion order
   coincides with this key whenever two propagations differ in arrival
   time or in tx-done tick; only exact cross-port timing ties at shared
   state can order differently (see DESIGN.md §14). *)

type rings = {
  part : Shard_part.t;
  barrier : Domain_barrier.t;
  matrix : Spsc_ring.t array array;  (* matrix.(producer).(consumer) *)
}

let stride = 4 + Packet_wire.words

let make_rings ~part =
  let n = Shard_part.shards part in
  {
    part;
    barrier = Domain_barrier.create n;
    matrix =
      Array.init n (fun _ -> Array.init n (fun _ -> Spsc_ring.create ~stride ()));
  }

let barrier r = r.barrier
let part r = r.part

(* A drained record, pending canonical sort. *)
type arrival = { fire : Sim_time.t; tick : Sim_time.t; key : int; seq : int }

type t = {
  sid : int;
  rings : rings;
  eng : Engine.t;
  dir_ports : Port.t array;  (* directed-port id = link_id * 2 + dir *)
  port_seq : int array;  (* per directed port, in serialization order *)
  scratch : int array;
  mutable pushed : int;  (* records pushed since the last [flags] call *)
  (* Reused between drains to keep the barrier path allocation-light.
     Entries [0 .. pend_n) carry records popped at an earlier barrier
     whose tx-done tick lay beyond that window's horizon. *)
  mutable sort_buf : arrival array;
  mutable pkt_buf : Packet.t array;
  mutable pend_n : int;
}

let dummy_arrival = { fire = 0; tick = 0; key = 0; seq = 0 }

let wrap rings ~sid net =
  let part = rings.part in
  let topo = (Network.fabric net).Leaf_spine.topo in
  let n_links = Topology.link_count topo in
  let dir_ports = Array.make (2 * n_links) None in
  for link_id = 0 to n_links - 1 do
    match Network.link_ports_pair net ~link_id with
    | None -> ()
    | Some (pab, pba) ->
        dir_ports.(2 * link_id) <- Some pab;
        dir_ports.((2 * link_id) + 1) <- Some pba
  done;
  let dir_ports =
    Array.map
      (function
        | Some p -> p
        | None -> failwith "Shard_net.wrap: link without ports")
      dir_ports
  in
  let eng = Network.engine net in
  let t =
    {
      sid;
      rings;
      eng;
      dir_ports;
      port_seq = Array.make (2 * n_links) 0;
      scratch = Array.make stride 0;
      pushed = 0;
      sort_buf = Array.make 64 dummy_arrival;
      pkt_buf = Array.make 64 (Obj.magic 0 : Packet.t);
      pend_n = 0;
    }
  in
  (* Lower every directed port whose transmitting node this shard owns:
     its tx-done hands the packet to us instead of scheduling local
     propagation. *)
  let push ~key ~dst_shard ~delay (pkt : Packet.t) =
    let now = Engine.now eng in
    let seq = t.port_seq.(key) in
    t.port_seq.(key) <- seq + 1;
    t.scratch.(0) <- key;
    t.scratch.(1) <- now + delay;
    t.scratch.(2) <- now;
    t.scratch.(3) <- seq;
    Packet_wire.encode pkt ~into:t.scratch ~off:4;
    Spsc_ring.push rings.matrix.(sid).(dst_shard) ~src:t.scratch ~off:0;
    t.pushed <- t.pushed + 1;
    (* The consumer decodes a fresh packet from its own pool; this
       domain is done with the object. *)
    Packet_pool.release pkt
  in
  for link_id = 0 to n_links - 1 do
    let link = Topology.link topo link_id in
    let sa = Shard_part.shard_of part link.Topology.a
    and sb = Shard_part.shard_of part link.Topology.b in
    if sa = sid then begin
      let key = 2 * link_id in
      Port.set_interlink t.dir_ports.(key) (fun ~delay pkt ->
          push ~key ~dst_shard:sb ~delay pkt)
    end;
    if sb = sid then begin
      let key = (2 * link_id) + 1 in
      Port.set_interlink t.dir_ports.(key) (fun ~delay pkt ->
          push ~key ~dst_shard:sa ~delay pkt)
    end
  done;
  t

let compare_arrival a b =
  if a.fire <> b.fire then compare a.fire b.fire
  else if a.tick <> b.tick then compare a.tick b.tick
  else if a.key <> b.key then compare a.key b.key
  else compare a.seq b.seq

(* The packet array must follow the arrival array through the canonical
   sort, so sort an index permutation over both.

   [upto] is the window horizon the barrier just closed.  A producer
   that has already crossed that barrier and raced into its next window
   can have parked records stamped beyond [upto]; admitting them here
   would hand them smaller engine sequence numbers than same-fire-time
   records drained at their proper barrier, making same-tick tie order
   a function of thread timing.  Such records are deferred — carried in
   the buffers until the barrier their tick belongs to. *)
let drain t ~upto =
  let n = ref t.pend_n in
  let shards = Shard_part.shards t.rings.part in
  for p = 0 to shards - 1 do
    ignore
      (Spsc_ring.drain t.rings.matrix.(p).(t.sid) (fun buf off ->
           if !n >= Array.length t.sort_buf then begin
             let cap = 2 * Array.length t.sort_buf in
             let sb = Array.make cap dummy_arrival in
             Array.blit t.sort_buf 0 sb 0 !n;
             t.sort_buf <- sb;
             let pb = Array.make cap t.pkt_buf.(0) in
             Array.blit t.pkt_buf 0 pb 0 !n;
             t.pkt_buf <- pb
           end;
           t.sort_buf.(!n) <-
             {
               fire = buf.(off + 1);
               tick = buf.(off + 2);
               key = buf.(off);
               seq = buf.(off + 3);
             };
           t.pkt_buf.(!n) <- Packet_wire.decode buf ~off:(off + 4);
           incr n))
  done;
  if !n > 0 then begin
    let idx = Array.init !n (fun i -> i) in
    Array.sort (fun i j -> compare_arrival t.sort_buf.(i) t.sort_buf.(j)) idx;
    Array.iter
      (fun i ->
        let a = t.sort_buf.(i) in
        if a.tick <= upto then
          Port.arrive_at t.dir_ports.(a.key) ~time:a.fire t.pkt_buf.(i))
      idx;
    (* Compact deferred records to the buffer front for the next call;
       relative order is irrelevant, the next drain re-sorts. *)
    let kept = ref 0 in
    for i = 0 to !n - 1 do
      if t.sort_buf.(i).tick > upto then begin
        t.sort_buf.(!kept) <- t.sort_buf.(i);
        t.pkt_buf.(!kept) <- t.pkt_buf.(i);
        incr kept
      end
    done;
    t.pend_n <- !kept
  end

(* Bit 0 of the window flags: this shard either has pending engine work
   or parked records in an outgoing ring during the last window.  The
   OR-reduction over all shards is therefore zero exactly when the whole
   fleet is quiescent. *)
let activity_flag t =
  let active = Engine.pending t.eng > 0 || t.pushed > 0 || t.pend_n > 0 in
  t.pushed <- 0;
  if active then 1 else 0

let spilled rings =
  let acc = ref 0 in
  Array.iter
    (fun row -> Array.iter (fun r -> acc := !acc + Spsc_ring.spilled r) row)
    rings.matrix;
  !acc
