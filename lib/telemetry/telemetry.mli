(** Process-global telemetry context: a metric registry plus a
    ring-buffered typed-event sink.

    Off by default.  Recording sites guard with [enabled ()] and build
    their event payloads and label lists only inside that guard, so the
    disabled cost is one load + branch and zero allocation.  [enable]
    installs a fresh context (experiments run sequentially; the last
    enabler owns the context). *)

type t

val enable : ?event_capacity:int -> unit -> t
(** Install and return a fresh context.  [event_capacity] bounds the
    retained event ring (default 65536; oldest events are overwritten,
    see {!events_dropped}). *)

val disable : unit -> unit
val enabled : unit -> bool
val ctx : unit -> t option

val metrics : unit -> Metrics.t option
val metrics_exn : unit -> Metrics.t

val record : time:Sim_time.t -> Event.t -> unit
(** No-op when disabled.  Bumps the per-kind count and appends to the
    ring. *)

val events : t -> (Sim_time.t * Event.t) list
(** Retained events, oldest first. *)

val events_retained : t -> int
val events_dropped : t -> int

val events_by_kind : t -> (string * int) list
(** Total recorded per kind, including events the ring overwrote. *)

val event_count : t -> int -> int
(** By [Event.kind_index]. *)

(** {2 By-name registry updates}

    Convenience wrappers that look the metric up on every call — use on
    warm paths; cache a [Metrics] handle on hot ones.  All are no-ops
    when telemetry is disabled. *)

val incr_counter : ?labels:Metrics.labels -> string -> unit
val add_counter : ?labels:Metrics.labels -> string -> int -> unit
val observe : ?labels:Metrics.labels -> string -> float -> unit
