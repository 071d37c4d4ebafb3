(** DCQCN rate control (Zhu et al., SIGCOMM'15), as implemented in RNIC
    firmware and parameterized the way the paper sweeps it.

    The reaction point keeps a current rate [Rc], a target rate [Rt] and a
    congestion estimate [alpha]:

    - On a congestion signal (CNP — or a NACK, which commodity RNICs also
      treat as a slow-start trigger, Section 2.2), and at most once every
      {b TD} ([rate_decrease_interval]): [Rt <- Rc],
      [Rc <- Rc * (1 - alpha/2)] (for NACKs, [Rc <- Rc * 0.5]),
      [alpha <- (1-g) alpha + g], and the recovery stage counter resets.

    - Every {b TI} ([rate_increase_timer]) since the last decrease (and
      every [B] bytes sent), a rate-increase event fires:
      the first [F] events do fast recovery ([Rc <- (Rc+Rt)/2]), the next
      [F] additive increase ([Rt += Rai]), then hyper increase
      ([Rt += Rhai]).

    - Every 55 us (the alpha timer) without congestion,
      [alpha <- (1-g) alpha].

    The paper's Figure 5 sweep varies (TI, TD) over {(900,4), (300,4),
    (10,4), (10,50), (10,200)} microseconds. *)

type config = {
  rate_decrease_interval : Sim_time.t;  (** TD *)
  rate_increase_timer : Sim_time.t;  (** TI *)
  nack_slow_start : bool;
      (** Whether a NACK triggers a rate decrease — the commodity-RNIC
          behaviour Themis suppresses.  [false] for the Ideal transport. *)
}
(** The rest of the rate machine is fixed:
    - g = 1/256 (alpha gain);
    - Rai = 40 Mbps, Rhai = 400 Mbps (additive and hyper increase steps);
    - B = 10 MB (byte counter);
    - F = 5 (fast-recovery rounds);
    - a NACK-triggered decrease multiplies [Rc] by 0.5, at most once every
      300 us.  NIC firmware applies one "slow restart" per loss episode
      rather than one per NACK; this gate models the episode granularity
      (CNP-triggered decreases keep the [TD] gate). *)

val default : config
(** TI = 900 us, TD = 4 us (the recommended setting the paper starts
    from), NACK slow-start on. *)

val with_ti_td : config -> ti_us:float -> td_us:float -> config
(** The Figure 5 sweep knob. *)

type t

val create :
  engine:Engine.t -> ?conn:Flow_id.t -> config:config -> line_rate:Rate.t ->
  unit -> t
(** [conn] only labels telemetry events: when given and the telemetry
    context is enabled, every rate decrease is recorded as a typed
    [Rate_change] event for that connection. *)

val rate : t -> Rate.t
val target : t -> Rate.t
val alpha : t -> float

val on_cnp : t -> unit
val on_nack : t -> unit
val on_timeout : t -> unit
(** Treated as a severe congestion signal: rate drops to the minimum. *)

val on_bytes_sent : t -> int -> unit

val decreases : t -> int
(** Number of rate-decrease events applied (slow starts). *)
