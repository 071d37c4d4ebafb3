(** The paper's experiments, reproduced as callable harnesses.

    Every figure/table of the paper maps onto one entry point here (see
    DESIGN.md's per-experiment index); the campaign runner and the CLI
    only format what these functions return. *)

type series = (float * float) list
(** [(time_us, value)] points. *)

(** {1 Telemetry read-out}

    Aggregates pulled from the current global {!Telemetry} context after a
    run.  The counters must agree with the simulator's own aggregates
    ({!Network.total_retx_packets}, {!Network.themis_totals}, ...) — the
    agreement is asserted by [test/test_telemetry.ml]. *)

type telemetry_summary = {
  tele_data_packets : int;
  tele_retx_packets : int;
  tele_nacks_generated : int;
  tele_nacks_valid : int;  (** Themis-D verdict "valid" (forwarded). *)
  tele_nacks_blocked : int;
  tele_nacks_underflow : int;  (** Forwarded for safety (ring drained). *)
  tele_comp_sent : int;
  tele_comp_cancelled : int;
  tele_flows_completed : int;
  tele_fct_p50_us : float;
  tele_fct_p99_us : float;
  tele_ecn_marks : int;
  tele_buffer_drops : int;
  tele_events : int;  (** Typed events recorded (including overwritten). *)
  tele_events_dropped : int;  (** Overwritten by the bounded ring. *)
}

val telemetry_summary : unit -> telemetry_summary option
(** [None] when no telemetry context is enabled. *)

val pp_telemetry_summary : Format.formatter -> telemetry_summary -> unit
(** Multi-line human-readable rendering; the fuzz harness's determinism
    oracle compares summaries with structural equality and prints both
    sides with this on mismatch. *)

(** {1 Motivation experiment (Section 2.2, Figure 1)}

    Fig. 1a fabric: 2 ToRs x 4 spines, 8 hosts, 100 Gbps.  Two interleaved
    4-node rings; each node sends [msg_bytes] to its ring successor, with
    random packet spraying.  Fig. 1b: spurious-retransmission ratio over
    time; Fig. 1c: sending rate over time; Fig. 1d: average flow
    throughput under NIC-SR vs the Ideal transport. *)

type motivation_config = {
  msg_bytes : int;
  transport : Rnic.transport;
  scheme : Network.scheme;
  seed : int;
  telemetry : bool;  (** Enable the typed-telemetry context for the run. *)
}

val default_motivation : motivation_config
(** 10 MB per flow (the paper's 100 MB scaled for simulation speed — the
    ratios are time-invariant), NIC-SR, random spraying.  The series
    buckets are always 20 us wide. *)

type motivation_result = {
  retx_series : series;  (** Per-bucket retransmission ratio, watched flow. *)
  rate_series : series;  (** Per-bucket sending rate (Gbps), watched flow. *)
  avg_retx_ratio : float;  (** All flows, whole run. *)
  avg_rate_gbps : float;  (** Watched flow, whole run (wire rate). *)
  avg_goodput_gbps : float;  (** Mean per-flow goodput — Fig. 1d's bar. *)
  flows : int;
  completion_us : float;
  nacks_generated : int;
  motivation_themis : Network.themis_totals option;
  telemetry : telemetry_summary option;
}

val motivation_params :
  scheme:Network.scheme -> transport:Rnic.transport -> seed:int ->
  Network.params
(** The Fig. 1 network: the motivation fabric under the classic DCQCN
    operating point (TI 55 us, TD 50 us).  The transport ablations share
    it. *)

val run_motivation : motivation_config -> motivation_result

(** {1 Collective-communication evaluation (Section 5, Figure 5)} *)

type coll = Schedule.collective =
  | Allreduce | Hd_allreduce | Alltoall | Allgather | Reduce_scatter
(** The collectives and their names live in {!Schedule}. *)

val scaled_eval_fabric : Leaf_spine.params
(** The paper's 16x16 evaluation fabric scaled to 8x8 for simulation
    speed (same 400 Gbps links, 1:1 subscription). *)

type eval_config = {
  fabric : Leaf_spine.params;
  scheme : Network.scheme;
  coll : coll;
  bytes_per_group : int;  (** Total collective payload per group. *)
  ti_us : float;  (** DCQCN rate-increase timer. *)
  td_us : float;  (** DCQCN rate-decrease interval. *)
  eval_seed : int;
}

val default_eval :
  ?fabric:Leaf_spine.params -> scheme:Network.scheme -> coll:coll -> unit ->
  eval_config
(** Defaults: an 8x8 leaf-spine at 400 Gbps (the paper's 16x16 scaled for
    simulation speed; pass [~fabric:Leaf_spine.paper_eval] for full
    scale), 4 MB per group, DCQCN (900, 4) us. *)

type eval_result = {
  tail_ct_ms : float;  (** Slowest group's completion — the §5 metric. *)
  mean_ct_ms : float;
  per_group_ms : float list;
  retx_ratio : float;
  nacks_generated : int;
  nacks_delivered : int;  (** NACKs that reached senders (post-Themis). *)
  data_packets : int;
  ecn_marks : int;
  buffer_drops : int;
  themis : Network.themis_totals option;
}

val run_collective : eval_config -> eval_result

(** {1 Incast (the Section 2.1 burstiness stressor)}

    [fanin] senders on one rack blast a single receiver on another; the
    receiver's host link is the bottleneck, DCQCN must converge, and the
    per-flow completion-time tail shows how much the load-balancing /
    transport combination adds on top of the unavoidable serialisation. *)

type incast_config = {
  fanin : int;
  incast_bytes : int;  (** Per sender. *)
  incast_scheme : Network.scheme;
  incast_seed : int;
}

val default_incast : scheme:Network.scheme -> incast_config
(** 8-to-1 at 100 Gbps, 1 MB per sender. *)

type incast_result = {
  fct_mean_us : float;
  fct_p50_us : float;
  fct_p99_us : float;
  incast_retx : int;
  incast_drops : int;
  incast_ecn_marks : int;
}

val run_incast : incast_config -> incast_result
