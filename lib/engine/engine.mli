(** The discrete-event simulation driver.

    An engine owns the simulated clock and a queue of pending events.
    Execution is strictly ordered by (time, scheduling order), so a run
    is a deterministic function of the initial schedule and the
    callbacks' behaviour.

    Events are closure-free: components register a callback once (at
    construction time) and every subsequent event is two words, the
    callback id and one [Obj.t] payload (usually the packet, or [()]
    for a timer), so scheduling on the hot path allocates nothing (see
    DESIGN.md §10).  Dispatch pops the event and applies the callback
    to its payload directly.  The closure API ([schedule]/[schedule_at])
    remains for cold paths and tests: it is callback 0 with the closure
    as payload, one closure allocation per event. *)

type t

type handle = int
(** A scheduled event.  Handles are generation-tagged ints from the
    queue's slot freelist: [none] (and any handle whose event already
    fired or was dropped) never matches a live event, so storing [none]
    replaces the [handle option] idiom without allocating. *)

type callback = int
(** Index into the engine's callback registry. *)

val none : handle
val null_callback : callback

val create : ?capacity:int -> unit -> t
(** [capacity] preallocates the event queue (default 256 events). *)

val now : t -> Sim_time.t
(** Current simulated time. *)

val register_callback : t -> (Obj.t -> unit) -> callback
(** Register a dispatch function once; the returned id is what events
    carry.  Registration allocates — do it at component construction,
    never on the event path.  The function receives the event's [obj]
    payload. *)

val schedule_call : t -> delay:Sim_time.t -> callback -> obj:Obj.t -> handle
(** Closure-free scheduling: runs the registered callback at
    [now t + delay] with [obj].  [delay] must be non-negative.
    Allocates nothing in steady state. *)

val schedule_call_at : t -> time:Sim_time.t -> callback -> obj:Obj.t -> handle
(** As [schedule_call] at absolute [time >= now t]. *)

val schedule : t -> delay:Sim_time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].  [delay] must be
    non-negative. *)

val schedule_at : t -> time:Sim_time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event (or [none])
    is a no-op. *)

val is_pending : t -> handle -> bool

val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit
(** Process events in order until the queue drains, [until] is passed, or
    [max_events] have fired.  The clock never moves backwards; when an
    [until] horizon stops the run, the clock is left at the horizon. *)

val drive :
  t ->
  finished:(unit -> bool) ->
  deadline:Sim_time.t ->
  settle:Sim_time.t ->
  unit
(** The scenario drive loop every runner shares: while [finished ()] is
    false and the clock is short of [deadline], {!run} to the next 5 ms
    completion check (capped at [deadline]); then, if [finished ()],
    run on for [settle] more so in-flight control traffic lands before
    the run is judged. *)

val stop : t -> unit
(** Ask a running [run] to return after the current event. *)

val events_processed : t -> int

val pending : t -> int
(** Number of scheduled-and-not-yet-fired events (including cancelled ones
    still in the queue). *)

val sched_stats : t -> int * int
(** [(wheel_adds, heap_adds)]: lifetime counts of events filed in the
    timing wheel's dense band vs. the overflow heap (DESIGN.md §15).
    bench-engine asserts the wheel hit ratio stays above 90% on incast. *)

