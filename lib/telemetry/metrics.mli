(** Registry of named, labeled counters, gauges and histograms.

    Naming convention: lowercase snake_case, unit suffix when the metric
    has one (e.g. [fct_us], [port_queue_bytes]); labels identify the
    sub-population, e.g. [("verdict", "blocked")] on [themis_nacks].
    Registration returns a mutable handle; updating through a cached
    handle is a single store and safe on hot paths. *)

type labels = (string * string) list

type t

val create : unit -> t

(** {2 Registration (find-or-create)}

    Raises [Invalid_argument] if the same (name, labels) was already
    registered with a different metric type. *)

type counter
type gauge

val counter : t -> ?labels:labels -> string -> counter
val gauge : t -> ?labels:labels -> string -> gauge

val histogram :
  t -> ?labels:labels -> ?min_value:float -> ?max_value:float -> string ->
  Histogram.t

(** {2 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : Histogram.t -> float -> unit

(** {2 Read-out} *)

val counter_value : t -> ?labels:labels -> string -> int
(** 0 when the counter does not exist. *)

val counter_total : t -> string -> int
(** Sum over every label combination of [name]. *)

val histogram_total : t -> string -> Histogram.t option
(** Merge over every label combination of [name]. *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of {
      count : int;
      sum : float;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;
    }

type row = { row_name : string; row_labels : labels; value : snapshot_value }

val snapshot : t -> row list
(** Sorted by name, then labels. *)
