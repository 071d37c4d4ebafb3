(** Content-addressed on-disk result store.

    One file per job result, [<dir>/<hash>.json], where the hash is the
    FNV-1a of the job's canonical string: a campaign never recomputes a
    job whose result file is present and valid, which gives warm reruns
    and crash-interrupted resume for free.  Writes go through a
    temp-file + [rename] so a killed worker can never leave a truncated
    result behind; unreadable or hash-mismatched files are treated as
    cache misses and deleted on the next [load].

    Baseline files ([bench/baselines/*.json]) use the same result JSON,
    one object per line inside a JSON array, so they diff cleanly. *)

type t

val open_ : dir:string -> t
(** Creates [dir] (and parents) if needed. *)

val path : t -> string -> string
(** [path t hash] — the result file for [hash]. *)

val load : t -> string -> Campaign_result.t option
(** [None] on missing, unparseable, or wrong-hash files; the two broken
    cases also unlink the file so the slot becomes a clean miss. *)

val mem : t -> string -> bool
(** [mem t hash] = [load t hash <> None] (validating). *)

val save : t -> Campaign_result.t -> unit
(** Atomic (temp + rename). *)

val raw_bytes : t -> string -> string option
(** Exact file contents, for byte-identity comparisons. *)

val list : t -> string list
(** Hashes present (validity not checked), sorted. *)

val write_baseline : file:string -> Campaign_result.t list -> unit
val read_baseline : file:string -> (Campaign_result.t list, string) result
