(** A growable ring-buffer FIFO.

    Replaces [Stdlib.Queue] on the data path: [Queue] allocates a cons
    cell per [add], while a ring writes into a preallocated circular
    array — [push]/[pop] allocate nothing once the ring has grown to the
    working-set size.  Unlike {!Vec} it supports O(1) removal at the
    front.  Not thread-safe, like everything else in the simulator. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append at the back; doubles the ring when full. *)

val pop : 'a t -> 'a
(** Remove the front element.  @raise Invalid_argument when empty —
    guard with {!is_empty}; there is deliberately no option-returning
    variant on the hot path. *)

val peek : 'a t -> 'a
(** @raise Invalid_argument when empty. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

val get : 'a t -> int -> 'a
(** [get q i] is the [i]-th element from the front without removing it
    ([get q 0 = peek q]).  O(1).  @raise Invalid_argument when
    [i < 0 || i >= length q]. *)

val drain : 'a t -> ('a -> unit) -> unit
(** [drain q f] removes the [length q] elements present at entry, front
    to back, calling [f] on each after it is popped.  [f] may push onto
    the same ring; pushed elements stay queued. *)

val clear : 'a t -> unit
