(** Runs one workload spec under one routing scheme, end to end.

    Builds the network, installs the compiled failure script, overlays
    the collective jobs ({!Workload.launch_group} over {!Runner}s),
    starts the open-loop {!Flow_stream}, and drives the engine in
    bounded steps until everything completes or the spec's deadline
    passes.  The build resets the per-run global state
    ({!Fabric_core.create}), so a (spec, scheme) run is a pure function —
    the property the campaign serial==forked oracle checks. *)

exception Bad_workload of string

type result = {
  r_scheme : string;
  r_load_pct : int;
  r_target_flows : int;
  r_offered : int;  (** Arrivals that fired before the deadline. *)
  r_completed : int;
  r_live_hwm : int;  (** Peak concurrently-live open-loop flows. *)
  r_qps_created : int;
  r_bytes_offered : int;
  r_fct : (string * float) list;  (** {!Fct.metrics}. *)
  r_colls_total : int;
  r_colls_done : int;
  r_coll_tail_us : float;  (** Slowest collective completion (or deadline). *)
  r_data_packets : int;
  r_retx_packets : int;
  r_buffer_drops : int;
  r_storm_drops : int;
  r_end_us : float;
}

val capacity_bps : Workload_spec.t -> float
(** Bisection bandwidth of the spec's fabric (the load-factor base). *)

val run : scheme:string -> Workload_spec.t -> result
(** Raises {!Bad_workload} on an invalid spec or unknown scheme. *)

val metrics : result -> (string * float) list
(** Flat campaign-result metric list (counts as floats). *)

val pp : Format.formatter -> result -> unit
