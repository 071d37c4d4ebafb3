(** A three-level hierarchical timing wheel for the dense near-future
    band of the event queue (DESIGN.md §15).

    Time is cut into 1024-tick windows, 256 windows to a 2^18-tick
    chunk and 64 chunks to a 2^24-tick (~16.7ms) {e epoch}.  Level 0 is
    2048 one-tick slots holding the cursor's window and the next one,
    so every delay below 1024 ticks files straight into it; level 1 is
    256 one-window slots holding the later windows of the next window's
    chunk; level 2 is 64 one-chunk slots holding the later chunks of the
    epoch — wide enough that every periodic timer in the simulator
    files into the wheel.  Entering a window cascades the one after it
    into the half of level 0 just freed.  Times the wheel cannot cover —
    behind the cursor, or beyond the epoch — are refused by {!add}; the
    caller ({!Event_queue}) keeps those in its overflow heap and
    migrates an epoch's worth down via {!jump} + {!add} when the cursor
    arrives.

    Within one timestamp, events pop in insertion order: a level-0 slot
    pins the exact time, lists are appended at the tail, and a window
    enters level 0 exactly once, by the cascade that fills it in
    insertion order, before any direct add can reach it.  This is what
    lets the wheel preserve the engine's (time, seq) total order without
    storing sequence numbers.

    The wheel is intrusive: the payload passed to {!add} is a caller
    arena slot id (< 2^24) that doubles as the wheel's node index, so
    the wheel allocates nothing per event — a node is one packed int
    (relative time + next link) and a slot list is one packed int
    (head + tail).  All operations are O(1) and allocation-free; the
    caller keeps the node array sized via {!ensure_capacity}. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] sizes the node array: payload ids up to [capacity - 1]
    are usable before {!ensure_capacity} must grow it (default 256). *)

val ensure_capacity : t -> int -> unit
(** [ensure_capacity t n] grows the node array (preserving resident
    nodes) so payload ids below [n] are usable.  Call when the owning
    arena grows. *)

val add : t -> time:int -> int -> bool
(** [add t ~time s] files payload [s] (an {!Event_queue} arena slot,
    < 2^24, below the {!ensure_capacity} bound) at [time].  Returns
    [false] — filing nothing — when [time] is behind the cursor or
    beyond the current epoch; the caller must then keep the event in
    its overflow structure. *)

val next_time : t -> int
(** Advance the cursor to the earliest resident time and return it, or
    [-1] when empty.  Idempotent until the head event is popped. *)

val peek_val : t -> int
(** Payload of the head event at the cursor.  Only valid immediately
    after a {!next_time} that returned [>= 0]. *)

val pop : t -> int
(** Remove and return the head event's payload.  Same precondition as
    {!peek_val}. *)

val cursor_occupied : t -> bool
(** [true] while the cursor's level-0 slot still holds events.  After a
    {!pop} this means the next event carries the exact time just served,
    so a caller may reuse its cached (time, head) decision without
    calling {!next_time} again. *)

val jump : t -> int -> unit
(** [jump t time] moves the cursor forward to the start of [time]'s
    epoch (never backwards; no-op within the current epoch).  Requires
    an empty wheel — it is the entry point for migrating an epoch of
    overflow events down. *)

val cursor : t -> int
(** Current cursor tick: every resident event's time is [>= cursor], and
    any [add] below it is refused. *)

val count : t -> int
val is_empty : t -> bool

val drain_all : t -> (int -> unit) -> unit
(** Remove every resident event, calling [f] on each payload (order
    unspecified); the cursor is left unchanged.  Cold path ([clear]). *)
