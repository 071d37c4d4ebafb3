(** Shared-buffer accounting for a switch.

    Every queued byte on any egress port of the switch draws from one
    shared pool; in addition each port is capped so a single congested
    queue cannot monopolize the chip ("static threshold" sharing).  Bytes
    are reserved at enqueue and released when the packet starts
    serializing out. *)

type t

val create : capacity:int -> per_port_cap:int -> t

val try_admit : t -> port_bytes:int -> size:int -> bool
(** Reserve [size] bytes for a packet headed to a port currently holding
    [port_bytes]; [false] (nothing reserved) if either limit would be
    exceeded. *)

val release : t -> int -> unit

val used : t -> int
val capacity : t -> int
val high_watermark : t -> int
