type mode = Sr | Gbn | Ideal
type reply = No_reply | Ack | Nack

type t = {
  mode : mode;
  ack_coalesce : int;
  mutable epsn : int;
  (* Out-of-order buffer as a power-of-two ring keyed [seq land mask]:
     live sequences span at most the sender window, so the ring stays
     collision-free at a fraction of that size and membership / insert /
     drain are single array reads where the hashtable this replaces
     hashed per packet.  [ooo_seq.(slot) = -1] marks an empty slot; the
     payload lives in the parallel array (payloads may be 0). *)
  mutable ooo_seq : int array;
  mutable ooo_payload : int array;
  mutable ooo_count : int;
  mutable nacked_current : bool;  (* a NACK was already sent for this ePSN *)
  mutable pending_advance : int;  (* in-order advances not yet ACKed *)
  mutable delivered_bytes : int;
  mutable dups : int;
  mutable ooo_dropped : int;
  mutable ooo_arrivals : int;
  mutable nacks_sent : int;
  mutable acks_sent : int;
}

let create ~mode ~ack_coalesce =
  if ack_coalesce < 1 then invalid_arg "Receiver.create: ack_coalesce >= 1";
  {
    mode;
    ack_coalesce;
    epsn = 0;
    ooo_seq = Array.make 64 (-1);
    ooo_payload = Array.make 64 0;
    ooo_count = 0;
    nacked_current = false;
    pending_advance = 0;
    delivered_bytes = 0;
    dups = 0;
    ooo_dropped = 0;
    ooo_arrivals = 0;
    nacks_sent = 0;
    acks_sent = 0;
  }

let ooo_mem t seq =
  let mask = Array.length t.ooo_seq - 1 in
  Array.unsafe_get t.ooo_seq (seq land mask) = seq

(* A slot occupied by a different live sequence means the live window
   outgrew the ring: double (rehoming every entry) until it fits. *)
let rec ooo_add t seq payload =
  let mask = Array.length t.ooo_seq - 1 in
  let slot = seq land mask in
  if t.ooo_seq.(slot) = -1 then begin
    t.ooo_seq.(slot) <- seq;
    t.ooo_payload.(slot) <- payload;
    t.ooo_count <- t.ooo_count + 1
  end
  else begin
    ooo_grow t;
    ooo_add t seq payload
  end

and ooo_grow t =
  let old_seq = t.ooo_seq and old_payload = t.ooo_payload in
  t.ooo_seq <- Array.make (2 * Array.length old_seq) (-1);
  t.ooo_payload <- Array.make (2 * Array.length old_payload) 0;
  t.ooo_count <- 0;
  Array.iteri
    (fun i seq -> if seq >= 0 then ooo_add t seq old_payload.(i))
    old_seq

(* Clear-and-return for the drain at [t.epsn]; [None] when absent. *)
let ooo_take t seq =
  let mask = Array.length t.ooo_seq - 1 in
  let slot = seq land mask in
  if t.ooo_seq.(slot) = seq then begin
    t.ooo_seq.(slot) <- -1;
    t.ooo_count <- t.ooo_count - 1;
    true
  end
  else false

let flush_ack t =
  t.pending_advance <- 0;
  t.acks_sent <- t.acks_sent + 1;
  Ack

let maybe_ack t ~force =
  if t.pending_advance >= t.ack_coalesce || (force && t.pending_advance > 0)
  then flush_ack t
  else No_reply

let nack_once t =
  if t.nacked_current then No_reply
  else begin
    t.nacked_current <- true;
    t.nacks_sent <- t.nacks_sent + 1;
    if Telemetry.enabled () then Telemetry.incr_counter "nacks_generated";
    Nack
  end

let deliver t payload = t.delivered_bytes <- t.delivered_bytes + payload

(* Top-level recursion, not a local [let rec]: a local recursive
   function capturing [t] allocates its closure on every in-order
   packet. *)
let rec drain t =
  if ooo_take t t.epsn then begin
    t.epsn <- t.epsn + 1;
    t.pending_advance <- t.pending_advance + 1;
    drain t
  end

(* Advance the ePSN over the contiguous prefix of the bitmap. *)
let advance t =
  t.epsn <- t.epsn + 1;
  t.pending_advance <- t.pending_advance + 1;
  t.nacked_current <- false;
  drain t

let on_data t ~seq ~payload ~last_of_msg =
  if seq = t.epsn then begin
    let before = t.epsn in
    deliver t payload;
    advance t;
    let filled_gap = t.epsn - before > 1 in
    maybe_ack t ~force:(last_of_msg || filled_gap)
  end
  else if seq < t.epsn then begin
    (* Duplicate of an already-delivered sequence: re-ACK so a sender whose
       ACKs were lost can advance. *)
    t.dups <- t.dups + 1;
    if Telemetry.enabled () then Telemetry.incr_counter "duplicate_packets";
    flush_ack t
  end
  else begin
    (* Out of order: seq > ePSN.  Counted in every mode: this is the
       wire-level reordering signal the LB-scheme arena gates on
       (Sprinklers must keep it at zero on symmetric paths). *)
    t.ooo_arrivals <- t.ooo_arrivals + 1;
    match t.mode with
    | Gbn ->
        t.ooo_dropped <- t.ooo_dropped + 1;
        nack_once t
    | Sr ->
        if ooo_mem t seq then t.dups <- t.dups + 1
        else begin
          ooo_add t seq payload;
          deliver t payload
        end;
        nack_once t
    | Ideal ->
        if ooo_mem t seq then t.dups <- t.dups + 1
        else begin
          ooo_add t seq payload;
          deliver t payload
        end;
        No_reply
  end

let epsn t = t.epsn
let delivered_bytes t = t.delivered_bytes
let duplicate_packets t = t.dups
let ooo_dropped t = t.ooo_dropped
let ooo_arrivals t = t.ooo_arrivals
let nacks_sent t = t.nacks_sent
let acks_sent t = t.acks_sent
let ooo_buffered t = t.ooo_count
