(** One job's measured output, as stored on disk.

    A result is deliberately {e free of runtime accounting} (wall time,
    heap, worker id): the stored JSON must be a pure function of the job
    so that a 4-worker campaign and a serial run of the same spec
    produce byte-identical store contents, and so warm reruns can trust
    cache hits.  Wall/heap accounting lives in {!Campaign_pool}'s
    summary instead. *)

type t = {
  job : string;  (** Canonical job string ({!Campaign_spec.job_to_string}). *)
  hash : string;  (** {!Campaign_spec.hash_string} of [job] — store key. *)
  metrics : (string * float) list;
      (** Ordered; names are [[a-z0-9_]+].  Counters are stored as exact
          integral floats. *)
}

val make : job:Campaign_spec.job -> metrics:(string * float) list -> t

val metric : t -> string -> float option

val to_json_string : t -> string
(** Canonical single-line JSON:
    [{"v":1,"job":...,"hash":...,"metrics":{...}}]. *)

val of_json_string : string -> (t, string) result
(** Validates the version tag and that [hash] matches [job] — a
    mismatch (hand-edited or corrupt file) is an error, which the store
    treats as a cache miss. *)

val pp : Format.formatter -> t -> unit
