(** A stable priority queue of timestamped events, allocation-free in
    steady state.

    Ordering is [(time, sequence)]: the sequence number makes same-time
    events FIFO with respect to insertion, which is what makes
    simulation runs deterministic.

    The store is hybrid (DESIGN.md §15): a three-level hierarchical
    {!Timing_wheel} holds the dense near-future band — every event
    whose time falls inside the cursor's current 2^24-tick epoch — at
    O(1) per add/pop, while a binary SoA min-heap holds the overflow:
    far-future timers, events scheduled across the epoch boundary
    (migrated down as the cursor's epoch arrives), and events scheduled
    behind the wheel cursor (an add between two [Engine.run ~until]
    windows, after the horizon peek already advanced the cursor; served
    directly from the heap).  The merge preserves the exact (time, seq)
    total order of a single heap; consumers cannot observe the split.

    An event's payload is two words — a pre-registered callback id and
    one [Obj.t] (see {!Engine}) — held in a slot arena shared by both
    bands and recycled through a freelist.  Handles are generation-tagged
    ints, so a stale handle can never cancel a recycled slot's new
    occupant.  Nothing allocates once the backing arrays have grown to
    the working-set size (or were preallocated via [create ~capacity]). *)

type t

type handle = int
(** Generation-tagged slot reference.  Obtained from {!add}; [none] is a
    valid argument everywhere and never matches a live event. *)

type slot = int
(** An arena slot taken off the queue by {!pop}, valid until {!release}. *)

val none : handle

val cancelled : int
(** The callback id {!slot_cb} returns for a cancelled event.  Real
    callback ids are [>= 0]. *)

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] preallocates the heap, the wheel's node arena
    and the slot arena for [capacity] simultaneous events; all grow by
    doubling beyond that. *)

val add : t -> time:Sim_time.t -> cb:int -> obj:Obj.t -> handle
(** Insert an event with callback id [cb >= 0].  The returned handle
    stays valid until the event's slot is released; after that it
    matches nothing. *)

val cancel : t -> handle -> unit
(** Overwrite the event's callback id with {!cancelled}; it stays queued
    (wheel slot or heap) until popped.  No-op for stale or [none]
    handles. *)

val is_pending : t -> handle -> bool
(** [true] iff the handle's event is still queued and not cancelled. *)

(** {2 Consuming the minimum}

    [peek_time_unsafe] and [pop] require [not (is_empty q)]; they are
    the engine's inner loop and perform no emptiness check of their
    own. *)

val peek_time_unsafe : t -> Sim_time.t
(** Time of the minimum event. *)

val pop : t -> slot
(** Remove the minimum event and return its slot, whose payload (and
    handle) stay valid until {!release}. *)

val slot_cb : t -> slot -> int
(** Callback id of a popped slot, or {!cancelled}. *)

val slot_obj : t -> slot -> Obj.t

val release : t -> slot -> unit
(** Recycle a popped slot, invalidating its handle. *)

val peek_time : t -> Sim_time.t option
(** Checked variant for tests and cold paths. *)

val size : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Current overflow-heap capacity in events (tests the
    [create ~capacity] hint; the wheel band does not consume it). *)

val wheel_adds : t -> int
(** Lifetime count of adds filed in the timing wheel. *)

val heap_adds : t -> int
(** Lifetime count of adds that overflowed to the heap.  The wheel hit
    ratio [wheel_adds / (wheel_adds + heap_adds)] is bench-engine's
    gate: the dense band must absorb the hot fixed-offset traffic. *)

val clear : t -> unit
(** Drop every queued event, recycling all slots. *)
