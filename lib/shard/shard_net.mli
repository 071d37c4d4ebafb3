(** Interlink lowering of a shard's replica network (DESIGN.md §14).

    Every fabric link's propagation — including links wholly inside one
    shard — is routed through an SPSC ring: stamped at tx-done time with
    the canonical key (arrival time, tx-done tick, directed-port id,
    per-port sequence), drained at the next window barrier, sorted by
    that key, and scheduled into the consuming shard's engine via
    {!Port.arrive_at} on its replica of the transmitting port.
    Because the key is computed on the producing shard alone and does
    not depend on the partition, runs with 1, 2 or 4 shards schedule
    byte-identical event sequences. *)

type rings
(** The shared interlink fabric: one barrier plus a producer x consumer
    matrix of rings.  Built once, before the domains are spawned. *)

val make_rings : part:Shard_part.t -> rings
val barrier : rings -> Domain_barrier.t
val part : rings -> Shard_part.t

val stride : int
(** Ints per ring record: the 4-word canonical key plus
    {!Packet_wire.words}. *)

type t
(** One shard's view: its replica network lowered onto the rings. *)

val wrap : rings -> sid:int -> Network.t -> t
(** Install interlink hooks on every directed port whose transmitting
    node shard [sid] owns.  Call after {!Network.build} and before the
    first event runs. *)

val drain : t -> upto:Sim_time.t -> unit
(** Pop every incoming ring, canonically sort, and schedule into the
    local engine every arrival whose tx-done tick is at or before
    [upto] (the window horizon the barrier just closed).  Later-stamped
    records — parked by a producer that already raced into its next
    window — are deferred to the barrier they belong to, so engine
    insertion order never depends on thread timing.  Must be called at
    a window barrier (all arrival times are then strictly in the local
    future). *)

val activity_flag : t -> int
(** Bit 0 set when this shard has pending engine work or pushed a record
    since the previous call; resets the pushed counter.  The
    OR-reduction across shards is zero exactly at fleet quiescence. *)

val spilled : rings -> int
(** Lifetime count of records that overflowed a ring into its spill
    list, over the whole matrix (diagnostics for ring sizing).  Only
    exact once the domains have joined. *)
