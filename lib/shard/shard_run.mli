(** Sharded execution of one (spec, scheme) fuzz scenario across OCaml 5
    domains (DESIGN.md §14).

    Each shard builds the full network from the identical deterministic
    code path (replica builds); ownership only gates who posts sends,
    who samples which probe, and who logs control-plane telemetry.
    Every fabric propagation is routed through the canonical ring
    machinery ({!Shard_net}).  Everything else is the serial runner's:
    each shard arms its replica with {!Fuzz_run.setup} and runs the same
    {!Shard.drive} loop, whose step here cuts each span into
    conservative lookahead windows ({!Shard.advance}); the merged
    replicas are judged by {!Fuzz_run.view} and {!Fuzz_run.judge}.

    The returned {!Fuzz_run.outcome} is invariant in [shards]; it equals
    the plain serial outcome (canonicalized, see
    {!canonical_events_jsonl}) except on exact same-tick cross-port
    timing ties, which the canonical ordering resolves by port id where
    the serial engine uses insertion order. *)

type stats = {
  st_events : int;  (** Engine events processed, summed over shards. *)
  st_spilled : int;  (** Interlink ring overflows (ring-sizing signal). *)
}

exception Unsupported of string
(** The spec cannot run sharded ({!Shard_part.supported}), or more than
    one shard was requested on a single-core runtime
    ({!Shard_part.ensure_domains}). *)

exception Crashed of string
(** A shard's simulation raised; peers were unwound via the barrier
    crash protocol.  [run_scheme_safe] converts this to a ["crash"]
    oracle violation. *)

val run_scheme : Fuzz_spec.t -> scheme:string -> shards:int -> Fuzz_run.outcome
val run_scheme_full :
  Fuzz_spec.t -> scheme:string -> shards:int -> Fuzz_run.outcome * stats

val run_scheme_safe :
  Fuzz_spec.t -> scheme:string -> shards:int -> Fuzz_run.outcome
(** Like {!Fuzz_run.run_scheme_safe}: simulator crashes become a
    ["crash"] violation; {!Fuzz_run.Bad_spec} and {!Unsupported} still
    propagate. *)

val canonical_events_jsonl : Fuzz_run.outcome -> string
(** The outcome's event dump as a sorted line multiset — the form in
    which serial and sharded runs are byte-comparable (they interleave
    same-tick events from different components differently). *)

val canonical_metrics_csv : unit -> string
(** Sorted CSV rows of the current telemetry context's registry, minus
    sampler-fed rows ([port_queue_bytes*], [qp_inflight_bytes*]): the
    sampler is a pure observer whose stop condition reads local queue
    occupancy, which is partition-dependent. *)
