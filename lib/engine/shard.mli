(** Conservative lockstep windows for sharded simulation (DESIGN.md §14).

    Every shard calls {!advance} with the same [(from, until_)] span and
    the shared barrier; the span is cut into windows of at most
    [lookahead] (the minimum cross-shard link latency), and after each
    window all shards synchronize, exchange status flags, and drain
    their incoming interlink rings.  Because a cross-shard packet's
    arrival time always lies strictly beyond the window that produced
    it, draining at the barrier never schedules an event in a shard's
    past — serial and sharded runs process identical event sets. *)

exception Aborted of int
(** Raised by {!advance} when the combined barrier flags intersect
    [abort_mask] — the cross-domain crash protocol: a crashed shard
    pumps the barrier with its abort bit set, and every healthy shard
    raises at the same phase, so no party is left blocking. *)

val advance :
  ?abort_mask:int ->
  barrier:Domain_barrier.t ->
  lookahead:Sim_time.t ->
  run:(until:Sim_time.t -> unit) ->
  flags:(unit -> int) ->
  drain:(upto:Sim_time.t -> unit) ->
  from:Sim_time.t ->
  until_:Sim_time.t ->
  unit ->
  int
(** Advance from [from] to [until_] in lockstep windows.  Per window:
    [run ~until:horizon] (advance the local engine), then a barrier
    carrying [flags ()] (an OR-reduced bitset, caller-defined), then
    [drain ~upto:horizon] (pop interlink rings, schedule arrivals).
    The [upto] bound matters for determinism: a producer that has
    already raced into its next window may have parked records stamped
    beyond [horizon], and the drain must defer them to the barrier
    they belong to or their engine insertion order becomes a function
    of thread timing.  Returns the
    combined flags of the final barrier (the one at [until_]).  Every
    shard must call this with identical [from]/[until_]/[lookahead] or
    the barrier phases diverge.  Raises {!Aborted} when a barrier's
    combined flags intersect [abort_mask] (default 0: never).  Raises
    [Invalid_argument] when [lookahead <= 0] or [until_ < from]; a
    [from = until_] span runs no windows and returns 0. *)

val drive :
  Engine.t ->
  step:(until:Sim_time.t -> unit) ->
  finished:(unit -> bool) ->
  deadline:Sim_time.t ->
  settle:Sim_time.t ->
  unit
(** The scenario drive loop every runner shares, serial or sharded:
    while [finished ()] is false and the engine's clock is short of
    [deadline], [step] to the next 5 ms completion check (capped at
    [deadline]); then, if [finished ()], [step] on for [settle] more so
    in-flight control traffic lands before the run is judged.  Serial
    runners pass [Engine.run ~until]; the sharded runner passes its
    lockstep {!advance} (which jumps straight ahead at fleet-wide
    quiescence), so both cut time at the same marks. *)
