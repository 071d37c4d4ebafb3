(** Regression gate: current campaign results vs a frozen baseline.

    Two families of checks:

    - {b Tolerance bands}: for every baseline result, the current store
      must hold a result whose headline metrics
      ({!Campaign_runner.headline_metrics}) sit within [tol_pct] percent
      of the frozen value.  A baseline job string that does not parse
      is an issue.  Deterministic seeds mean the simulator reproduces
      baselines exactly on an unchanged tree; the band absorbs
      intentional model evolution while still catching
      order-of-magnitude regressions.

    - {b Shape invariants}: the paper's qualitative results must hold
      regardless of absolute numbers — for every Fig. 5 grid point,
      tail CT ordering Themis <= AR <= ECMP (with [slack_pct] slack),
      and for incast, Themis' p99 no worse than ECMP's; fuzz jobs must
      report zero oracle violations.

    A perturbed baseline (the acceptance drill) therefore fails the
    band check even when the simulator itself is healthy. *)

type issue = { i_job : string; i_what : string }

type verdict = {
  g_band_checks : int;  (** (job, metric) pairs compared to baseline. *)
  g_shape_checks : int;
  g_issues : issue list;
}

val ok : verdict -> bool

val check :
  ?tol_pct:float ->
  ?slack_pct:float ->
  baseline:Campaign_result.t list ->
  lookup:(string -> Campaign_result.t option) ->
  jobs:Campaign_spec.job list ->
  unit ->
  verdict
(** Defaults: [tol_pct = 25.], [slack_pct = 5.].  [lookup] resolves a
    job hash in the current store; [jobs] is the campaign's expanded
    grid (drives the shape checks and the missing-result check). *)

val pp_verdict : Format.formatter -> verdict -> unit
