(** Identity of an RDMA connection (a queue pair).

    A connection is oriented: [src] is the requester (data sender) and [dst]
    the responder.  Acknowledgements travel dst -> src but carry the same
    connection identity, which is what the Themis-D flow table is keyed on. *)

type t = { src : int; dst : int; qpn : int }
(** [src]/[dst] are host node ids; [qpn] is the destination QP number. *)

val make : src:int -> dst:int -> qpn:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t

(** {2 Interning}

    Dense integer ids assigned in first-touch order.  Hot-path per-flow
    state (the Themis-D flow table, RNIC QP dispatch, receiver state)
    is keyed on these so steady-state packet processing indexes arrays
    with zero hashing; the hash is paid once per flow at first touch.
    The interner is global run state like [Packet]'s uid counter and is
    reset with it by every fabric build ([Fabric_core.create]), making
    id assignment deterministic and byte-identical across serial and
    forked executions. *)

val intern : t -> int
(** The flow's dense id, assigning the next free one on first touch. *)

val lookup_interned : t -> int option
(** Like {!intern} but never assigns — for read-only lookups that must
    not perturb id assignment order. *)

val interned_count : unit -> int
(** Number of ids assigned since the last reset; all ids are below it. *)

val reset_interner : unit -> unit
(** Forget all assignments; every fabric build calls it, so every run
    starts from identical global state. *)

val intern_snapshot : unit -> (int * t) list
(** Current [(id, flow)] assignment sorted by id — determinism tests
    compare this across runs. *)
