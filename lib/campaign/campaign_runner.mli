(** Execute one campaign job in the current process.

    Every fabric a job builds resets the per-run global state itself
    ({!Fabric_core.create}), and every job's telemetry context ends with
    the job, so executing a job in-process after other jobs (the serial
    pool path) yields {e exactly} the same result record as executing it
    in a freshly forked worker.  The Fig. 1, Fig. 5 and incast jobs run
    under a fresh typed-telemetry context with the periodic sampler left
    off: it would inject engine events and perturb the simulation. *)

val run_job : Campaign_spec.job -> Campaign_result.t
(** Dispatch on the job kind.  Raises [Invalid_argument] on unresolvable
    names (callers validate specs first) and propagates simulator
    failures — the pool converts those into per-job crash records. *)

val headline_metrics : Campaign_spec.job -> string list
(** The metrics {!Campaign_gate} holds inside the tolerance band for
    this job kind (e.g. [tail_ct_ms] for Fig. 5 cells). *)
