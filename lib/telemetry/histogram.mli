(** Log-bucketed histogram with O(1), allocation-free recording.

    Buckets grow geometrically (default growth 2^(1/8), ~9% relative
    resolution) between [min_value] and [max_value]; values below the
    range land in an underflow bucket and values above it in the last
    bucket.  Designed so [record] stays well under 100 ns and
    instrumentation can remain enabled during experiments. *)

type t

val create : ?min_value:float -> ?max_value:float -> ?growth:float -> unit -> t
(** Defaults: [min_value = 1e-6], [max_value = 1e12],
    [growth = 2^(1/8)]. *)

val record : t -> float -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min_recorded : t -> float
val max_recorded : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 1]: the representative value of the
    bucket holding the rank-[ceil p*count] sample, clamped to the
    observed min/max.  Monotone in [p]; [nan] when empty. *)

val merge : into:t -> t -> unit
(** Add [src]'s buckets into [into].  Raises [Invalid_argument] if the
    two histograms were created with different parameters. *)

val copy : t -> t

(** Bucket introspection (tests, exporters). *)

val bucket_count : t -> int
val bucket_index : t -> float -> int
val bucket_lower : t -> int -> float
val bucket_upper : t -> int -> float
