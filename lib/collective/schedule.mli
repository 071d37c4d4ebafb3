(** Communication schedules of the collectives AI training jobs run.

    A schedule is a sequence of steps; each step is a set of point-to-point
    transfers (by group rank) that proceed in parallel, with a barrier
    between steps (the synchronized pattern of Section 2.1).  Ring
    collectives follow the standard construction: Allreduce over [n] ranks
    and [bytes] total payload is [2(n-1)] steps of [bytes/n]-sized chunks
    around the ring (reduce-scatter then all-gather); Alltoall is a single
    step in which every rank sends [bytes/n] to every other rank. *)

type transfer = { src : int; dst : int; bytes : int }
type step = transfer list
type t = step list

val ring_allreduce : ranks:int -> bytes:int -> t
val ring_reduce_scatter : ranks:int -> bytes:int -> t
val ring_allgather : ranks:int -> bytes:int -> t
val alltoall : ranks:int -> bytes:int -> t

val halving_doubling_allreduce : ranks:int -> bytes:int -> t
(** Recursive halving reduce-scatter followed by recursive doubling
    all-gather: [2 log2 n] steps; step [s] of the halving phase exchanges
    [bytes / 2^(s+1)] with the partner at distance [2^s] (NCCL's
    tree-free algorithm for power-of-two groups).  [ranks] must be a
    power of two [>= 2]. *)

val broadcast : ranks:int -> root:int -> bytes:int -> t
(** Binomial-tree broadcast from [root]: [log2 n] (rounded up) steps;
    ranks that already hold the data forward it to their mirror at the
    current distance. *)

val ring_once : ranks:int -> bytes:int -> t
(** One step in which rank [r] sends [bytes] to rank [r+1] — the
    motivation experiment's traffic pattern (Fig. 1a). *)

(** {2 Named collectives}

    The one table of the collectives a job names: the Fig. 5 campaign
    axis ([cj1] lines), the workload overlays ([wl1] lines) and
    [themis_cli fig5 --coll] all spell them this way. *)

type collective = Allreduce | Hd_allreduce | Alltoall | Allgather | Reduce_scatter
(** [Hd_allreduce] is the halving-doubling variant — fewer, larger steps
    than the ring; group sizes must be powers of two. *)

val collectives : (string * collective) list
(** Every collective with its name, in a fixed order: [allreduce],
    [hd-allreduce], [alltoall], [allgather], [reduce-scatter]. *)

val collective_to_string : collective -> string

val collective_of_string : string -> (collective, string) result
(** [Error "unknown collective \"...\""] for a name not in
    {!collectives}. *)

val of_collective : collective -> ranks:int -> bytes:int -> t
(** The schedule of one collective over [ranks] ranks and [bytes] total
    payload. *)

val total_bytes : t -> int
val steps : t -> int
val transfers : t -> int

val chunk : ranks:int -> bytes:int -> int
(** Per-rank chunk size [ceil (bytes / ranks)], at least 1. *)

val pp_summary : Format.formatter -> t -> unit
