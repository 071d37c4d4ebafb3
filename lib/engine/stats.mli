(** Metric collection for experiments.

    Two collectors cover everything the paper's figures need:
    - {!Time_series}: values bucketed by simulated time (retransmission ratio
      and sending rate over time, Figs. 1b/1c).
    - {!Summary}: scalar aggregation (mean/min/max/percentiles) for
      completion times and throughputs (Figs. 1d, 5a, 5b). *)

module Time_series : sig
  type t
  (** Accumulates [(time, value)] points into fixed-width buckets. *)

  val create : bucket:Sim_time.t -> t

  val add : t -> time:Sim_time.t -> float -> unit
  (** Add a sample into the bucket containing [time]. *)

  val buckets : t -> (Sim_time.t * float * int) list
  (** [(bucket_start, sum, count)] for every non-empty bucket, in time
      order. *)

  val means : t -> (Sim_time.t * float) list
  (** Per-bucket mean value. *)

  val sums : t -> (Sim_time.t * float) list

  val rate_per_sec : t -> (Sim_time.t * float) list
  (** Per-bucket [sum / bucket_width_in_seconds]; turns byte counts into
      bytes-per-second series. *)
end

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val sum : t -> float

  val percentile : t -> float -> float
  (** [percentile t 0.99]; nearest-rank on the sorted samples. *)
end
