open Packet

(* Growable stacks; a popped element stays referenced by the backing
   array until overwritten, which is harmless retention, not a leak. *)
type stack = { mutable buf : Packet.t array; mutable len : int }

(* One freelist per kind: a record is only reused as its own kind,
   because giving it another kind allocates a fresh [kind] block.  CNP
   is a constant constructor, so PAUSE records may turn into CNPs. *)
type pool = {
  free_data : stack;
  free_ack : stack;
  free_nack : stack;
  free_cnp : stack;
}

let empty () = { buf = [||]; len = 0 }

let pl =
  {
    free_data = empty ();
    free_ack = empty ();
    free_nack = empty ();
    free_cnp = empty ();
  }

let push st p =
  if st.len >= Array.length st.buf then begin
    let ncap = Stdlib.max 32 (2 * st.len) in
    let nbuf = Array.make ncap p in
    Array.blit st.buf 0 nbuf 0 st.len;
    st.buf <- nbuf
  end;
  st.buf.(st.len) <- p;
  st.len <- st.len + 1

(* Caller has checked [st.len > 0]. *)
let pop st =
  st.len <- st.len - 1;
  st.buf.(st.len)

let release p =
  if not p.pooled then begin
    p.pooled <- true;
    match p.kind with
    | Data _ -> push pl.free_data p
    | Ack _ -> push pl.free_ack p
    | Nack _ -> push pl.free_nack p
    | Cnp | Pause _ -> push pl.free_cnp p
  end

let clear st =
  st.buf <- [||];
  st.len <- 0

let reset () =
  clear pl.free_data;
  clear pl.free_ack;
  clear pl.free_nack;
  clear pl.free_cnp

let data ~conn ~conn_id ~sport ~psn ~payload ~last_of_msg ~retransmission
    ~birth =
  if pl.free_data.len > 0 then begin
    let p = pop pl.free_data in
    p.pooled <- false;
    p.uid <- Packet.fresh_uid ();
    p.conn <- conn;
    p.conn_id <- conn_id;
    p.src_node <- conn.Flow_id.src;
    p.dst_node <- conn.Flow_id.dst;
    (match p.kind with
    | Data d ->
        d.psn <- psn;
        d.payload <- payload;
        d.last_of_msg <- last_of_msg
    | Ack _ | Nack _ | Cnp | Pause _ -> p.kind <- Data { psn; payload; last_of_msg });
    p.size <- payload + Headers.data_overhead;
    p.udp_sport <- sport;
    p.ecn <- Headers.Ect;
    p.retransmission <- retransmission;
    p.birth <- birth;
    p.entropy_echo <- -1;
    p.ecn_echo <- false;
    p
  end
  else
    Packet.make_data ~conn ~conn_id ~sport ~psn ~payload ~last_of_msg
      ~retransmission ~birth

(* Control packets travel dst -> src of [conn]; the caller has already
   set [p.kind]. *)
let reuse_control p ~conn ~conn_id ~sport ~size ~birth =
  p.pooled <- false;
  p.uid <- Packet.fresh_uid ();
  p.conn <- conn;
  p.conn_id <- conn_id;
  p.src_node <- conn.Flow_id.dst;
  p.dst_node <- conn.Flow_id.src;
  p.size <- size;
  p.udp_sport <- sport;
  p.ecn <- Headers.Not_ect;
  p.retransmission <- false;
  p.birth <- birth;
  p.entropy_echo <- -1;
  p.ecn_echo <- false;
  p

let ack ~conn ~conn_id ~sport ~psn ~birth =
  if pl.free_ack.len > 0 then begin
    let p = pop pl.free_ack in
    (match p.kind with
    | Ack a -> a.psn <- psn
    | Data _ | Nack _ | Cnp | Pause _ -> p.kind <- Ack { psn });
    reuse_control p ~conn ~conn_id ~sport ~size:Headers.ack_bytes ~birth
  end
  else
    Packet.make_control ~conn ~conn_id ~sport ~kind:(Ack { psn })
      ~size:Headers.ack_bytes ~birth

let nack ~conn ~conn_id ~sport ~epsn ~birth =
  if pl.free_nack.len > 0 then begin
    let p = pop pl.free_nack in
    (match p.kind with
    | Nack n -> n.epsn <- epsn
    | Data _ | Ack _ | Cnp | Pause _ -> p.kind <- Nack { epsn });
    reuse_control p ~conn ~conn_id ~sport ~size:Headers.ack_bytes ~birth
  end
  else
    Packet.make_control ~conn ~conn_id ~sport ~kind:(Nack { epsn })
      ~size:Headers.ack_bytes ~birth

let cnp ~conn ~conn_id ~sport ~birth =
  if pl.free_cnp.len > 0 then begin
    let p = pop pl.free_cnp in
    p.kind <- Cnp;
    reuse_control p ~conn ~conn_id ~sport ~size:Headers.cnp_bytes ~birth
  end
  else
    Packet.make_control ~conn ~conn_id ~sport ~kind:Cnp
      ~size:Headers.cnp_bytes ~birth

let clone p =
  let kind =
    match p.kind with
    | Data { psn; payload; last_of_msg } -> Data { psn; payload; last_of_msg }
    | Ack { psn } -> Ack { psn }
    | Nack { epsn } -> Nack { epsn }
    | Cnp -> Cnp
    | Pause { stop } -> Pause { stop }
  in
  { p with kind; pooled = false }
