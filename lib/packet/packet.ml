type kind =
  | Data of {
      mutable psn : Psn.t;
      mutable payload : int;
      mutable last_of_msg : bool;
    }
  | Ack of { mutable psn : Psn.t }
  | Nack of { mutable epsn : Psn.t }
  | Cnp
  | Pause of { stop : bool }

type t = {
  mutable uid : int;
  mutable conn : Flow_id.t;
  mutable conn_id : int;
  mutable src_node : int;
  mutable dst_node : int;
  mutable kind : kind;
  mutable size : int;
  mutable udp_sport : int;
  mutable ecn : Headers.ecn;
  mutable retransmission : bool;
  mutable birth : Sim_time.t;
  mutable pooled : bool;
  (* Entropy echo (REPS): on ACK/NACK, the udp_sport the acknowledged
     data packet carried, and whether it arrived CE-marked.  -1 = none. *)
  mutable entropy_echo : int;
  mutable ecn_echo : bool;
}

let uid_counter = ref 0

let fresh_uid () =
  incr uid_counter;
  !uid_counter

let reset_uid_counter () = uid_counter := 0

let make_data ~conn ~conn_id ~sport ~psn ~payload ~last_of_msg ~retransmission
    ~birth =
  {
    uid = fresh_uid ();
    conn;
    conn_id;
    src_node = conn.Flow_id.src;
    dst_node = conn.Flow_id.dst;
    kind = Data { psn; payload; last_of_msg };
    size = payload + Headers.data_overhead;
    udp_sport = sport;
    ecn = Headers.Ect;
    retransmission;
    birth;
    pooled = false;
    entropy_echo = -1;
    ecn_echo = false;
  }

let data ~conn ?conn_id ~sport ~psn ~payload ~last_of_msg
    ?(retransmission = false) ~birth () =
  let conn_id =
    match conn_id with Some id -> id | None -> Flow_id.intern conn
  in
  make_data ~conn ~conn_id ~sport ~psn ~payload ~last_of_msg ~retransmission
    ~birth

let make_control ~conn ~conn_id ~sport ~kind ~size ~birth =
  {
    uid = fresh_uid ();
    conn;
    conn_id;
    src_node = conn.Flow_id.dst;
    dst_node = conn.Flow_id.src;
    kind;
    size;
    udp_sport = sport;
    ecn = Headers.Not_ect;
    retransmission = false;
    birth;
    pooled = false;
    entropy_echo = -1;
    ecn_echo = false;
  }

let control ~conn ~sport ~kind ~size ~birth =
  make_control ~conn ~conn_id:(Flow_id.intern conn) ~sport ~kind ~size ~birth

let ack ~conn ~sport ~psn ~birth =
  control ~conn ~sport ~kind:(Ack { psn }) ~size:Headers.ack_bytes ~birth

let nack ~conn ~sport ~epsn ~birth =
  control ~conn ~sport ~kind:(Nack { epsn }) ~size:Headers.ack_bytes ~birth

let cnp ~conn ~sport ~birth =
  control ~conn ~sport ~kind:Cnp ~size:Headers.cnp_bytes ~birth

let is_data t = match t.kind with Data _ -> true | Ack _ | Nack _ | Cnp | Pause _ -> false
let is_nack t = match t.kind with Nack _ -> true | Data _ | Ack _ | Cnp | Pause _ -> false

let payload_bytes t =
  match t.kind with Data { payload; _ } -> payload | Ack _ | Nack _ | Cnp | Pause _ -> 0

let pp ppf t =
  let kind_str =
    match t.kind with
    | Data { psn; payload; last_of_msg } ->
        Format.asprintf "data %a len=%d%s" Psn.pp psn payload
          (if last_of_msg then " last" else "")
    | Ack { psn } -> Format.asprintf "ack %a" Psn.pp psn
    | Nack { epsn } -> Format.asprintf "nack e%a" Psn.pp epsn
    | Cnp -> "cnp"
    | Pause { stop } -> if stop then "pause" else "resume"
  in
  Format.fprintf ppf "#%d [%a] %d=>%d %s%s" t.uid Flow_id.pp t.conn t.src_node
    t.dst_node kind_str
    (if t.retransmission then " (retx)" else "")
