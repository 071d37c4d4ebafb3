(** Flow-completion-time accounting by size class.

    Backed by log-bucketed {!Histogram}s, so recording a 10M-flow run
    costs O(1) memory and O(1) per flow — unlike {!Stats.Summary}, which
    retains every sample.  Classes: small [<= 10 kB], medium [<= 100 kB],
    large [<= 1 MB], huge [> 1 MB]. *)

val class_of_bytes : int -> int
val class_name : int -> string

type t

val create : unit -> t
val record : t -> bytes:int -> fct_us:float -> unit
val count : t -> int
val class_count : t -> int -> int

val metrics : t -> (string * float) list
(** Flat metric list for campaign results: overall
    [flows]/[fct_p50_us]/[fct_p99_us]/[fct_p999_us]/[fct_mean_us] plus
    the same per class under a [<class>_] prefix.  Empty-histogram
    percentiles read as [0.] (never NaN). *)
