(** Themis-Destination: NACK validation, blocking and compensation at the
    destination ToR (Sections 3.3 and 3.4).

    The switch calls {!on_data} for every data packet it forwards on the
    last hop (ToR -> NIC) and {!on_nack} for every NACK arriving from the
    local NIC.  [on_nack] recovers the triggering PSN (tPSN) from the
    per-QP ring queue — the first queued PSN circularly greater than the
    NACK's ePSN, correct because the RNIC emits at most one NACK per ePSN
    — then applies Eq. 3:

    - same residue (same path) — the expected packet is provably lost:
      [Forward] the NACK;
    - different residue (different path) — reordering only: [Block] it and
      arm compensation ([BePSN <- ePSN], [Valid <- true]).

    Compensation (on later data arrivals for the flow): a packet with
    [PSN = BePSN] proves nothing was lost (disarm); a packet with
    [PSN > BePSN] on BePSN's path proves the loss, so a NACK for BePSN is
    generated on the RNIC's behalf — exactly once — via [inject_nack].

    If the ring queue drains before a tPSN is found (RTT fluctuation beyond
    the capacity factor F) the NACK is conservatively forwarded: Themis
    never suppresses recovery it cannot prove unnecessary. *)

type decision = Forward | Block

type stats = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;  (** Eq. 3 held: real loss on the same path. *)
  nacks_forwarded_underflow : int;
      (** Ring queue drained before tPSN was found; forwarded for safety. *)
  compensation_sent : int;
  compensation_cancelled : int;  (** BePSN packet showed up after all. *)
  data_seen : int;
}

type t

val create :
  paths:int ->
  queue_capacity:int ->
  ?compensation:bool ->
  ?node:int ->
  ?clock:(unit -> Sim_time.t) ->
  inject_nack:
    (conn:Flow_id.t -> conn_id:int -> sport:int -> epsn:Psn.t -> unit) ->
  unit ->
  t
(** [compensation] defaults to [true]; disabling it is the ABL ablation.
    [inject_nack] must put a NACK for [conn] on the path back to the
    sender.  [node] (the owning ToR id) and [clock] only feed telemetry:
    when the telemetry context is enabled, every NACK verdict and
    compensation action is recorded as a typed event at time
    [clock ()] (defaults: [-1] and a clock stuck at zero). *)

val paths : t -> int

val set_paths : t -> int -> unit
(** Adjust the live path count after a failure (paired with
    {!Themis_s.set_paths}).  Validation of NACKs triggered by packets
    sprayed under the old count is transiently unreliable; safety holds
    because blocked NACKs remain covered by compensation and the sender's
    timeout. *)

val register_flow : t -> Flow_id.t -> unit
(** Connection-setup interception: allocate the flow-table entry and PSN
    queue.  Flows are also auto-registered on first data arrival. *)

val on_data : t -> Packet.t -> unit
(** Must be called with a data packet (asserts otherwise) exactly when the
    ToR forwards it onto the last hop. *)

val on_nack : t -> Packet.t -> decision
(** Must be called with a NACK packet travelling NIC -> sender. *)

val stats : t -> stats
val flow_table : t -> Flow_table.t
val queue_overwrites : t -> int
(** Total ring-queue overwrites across all flows (sizing-rule health). *)
