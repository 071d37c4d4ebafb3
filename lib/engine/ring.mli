(** Fixed-capacity drop-oldest ring buffer.

    O(1) push; when full, the oldest entry is overwritten and counted in
    [dropped].  Backs the telemetry event sink so long runs cannot grow
    memory without bound. *)

type 'a t

val create : capacity:int -> 'a t
val capacity : 'a t -> int
val length : 'a t -> int

val dropped : 'a t -> int
(** Entries overwritten because the ring was full. *)

val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val clear : 'a t -> unit

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val fold : 'a t -> init:'b -> ('b -> 'a -> 'b) -> 'b
