(** Fuzz scenario specifications.

    A spec is the complete, self-contained description of one randomized
    scenario: fabric shape, workload, injected faults and the scheme list
    to run it under.  Every field is an integer (probabilities in parts
    per million, times in nanoseconds, bandwidths in Gbps), so
    [to_string]/[of_string] round-trip {e exactly} and a printed spec is a
    one-line reproducer:

    {v dune exec bin/themis_fuzz_cli.exe -- replay '<spec>' v}

    [generate ~seed] derives a spec deterministically from a seed, and
    [of_string "gen:<seed>"] resolves the same spec, so failures found in
    seed-sweep mode can be replayed without shipping the full string. *)

type profile = Quick | Soak
(** Generation bounds: [Quick] keeps fabrics and messages small enough for
    CI sweeps; [Soak] allows bigger fabrics (including k = 8 fat trees),
    longer messages and more concurrent faults. *)

type shape =
  | Ls of {
      n_leaves : int;
      n_spines : int;
      hosts_per_leaf : int;
      host_gbps : int;
      fabric_gbps : int;  (** May differ from [host_gbps] (asymmetry). *)
      link_delay_ns : int;
    }
  | Ft of { k : int; gbps : int; link_delay_ns : int }

type transfer = { src : int; dst : int; bytes : int; start_ns : int }

type link_fault = {
  fault_link : int;  (** Link id in the generated topology. *)
  down_ns : int;
  up_ns : int;  (** [<= down_ns] means the link stays down. *)
}

type t = {
  seed : int;  (** Drives run-time randomness (fabric RNG, fault RNG). *)
  shape : shape;
  gbn : bool;  (** Go-back-N NICs instead of NIC-SR. *)
  queue_factor_pct : int;  (** Themis-D ring factor F, percent. *)
  per_port_kb : int;  (** Switch per-port buffer cap, KiB. *)
  jitter_ns : int;  (** Last-hop jitter bound (leaf-spine only). *)
  drop_ppm : int;  (** Per-delivery random drop probability. *)
  corrupt_ppm : int;  (** Dropped as a CRC failure; counted separately. *)
  dup_ppm : int;  (** Duplicate delivery, re-scheduled later. *)
  delay_ppm : int;  (** Extra delivery delay in [[1, delay_max_ns]]. *)
  delay_max_ns : int;
  shrink_pathset : bool;
      (** Link-failure handling: re-spray over surviving spines instead of
          the default ECMP fallback. *)
  deadline_ns : int;  (** Liveness bound for the completion oracle. *)
  schemes : string list;  (** Scheme names; [[]] means {!all_schemes}. *)
  transfers : transfer list;
  link_faults : link_fault list;
  slow_spine : (int * int) option;
      (** [(spine_index, gbps)]: derate every leaf<->spine link of that
          spine — the persistently-congested / asymmetric-speed arena
          scenarios.  Leaf-spine shapes only; serialized as [sspine=],
          absent on pre-arena corpus lines (parsed as [None]). *)
}

val all_schemes : string list
(** ["ecmp"; "spray"; "ar"; "themis"] — NIC-SR over ECMP, random packet
    spraying, adaptive routing, and the full Themis system. *)

val n_hosts_of_shape : shape -> int

val leaf_spine : shape -> Leaf_spine.params
(** The leaf-spine fabric of an [Ls] shape.  Raises [Invalid_argument]
    on a fat tree. *)

val fabric_link_id : shape -> leaf:int -> spine:int -> int
(** Link id of a leaf<->spine link in the generated topology (host links
    occupy ids [0 .. n_hosts - 1]).  Leaf-spine shapes only. *)

val shape_to_string : shape -> string
(** ["ls:leaves:spines:hosts:hostg:fabg:delay"] or ["ft:k:gbps:delay"] —
    the shape fragment of the [fz1] grammar, reused verbatim by
    [Workload_spec]. *)

val shape_of_string : string -> (shape, string) result

val validate_shape : shape -> (unit, string) result
(** Every [ls:] count and rate >= 1; [ft:] needs k >= 4 with k/2 a power
    of two, and rate >= 1.  Link delays are unchecked. *)

val validate : t -> (unit, string) result
(** {!validate_shape} plus the scalar ranges: [qf] and [ppcap] >= 1,
    [jit] and the [dly] maximum >= 0, and each ppm rate ([drop],
    [corr], [dup], [dly]) within [0, 1000000].  The fabric-relative
    checks (flow endpoints, fault links) are [Fuzz_run]'s. *)

val packets_of_bytes : t -> int -> int
(** Messages are segmented at {!Rnic.mtu}. *)

val generate : ?profile:profile -> seed:int -> unit -> t
(** Deterministic: the same seed always yields the same spec. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of [to_string]; also accepts ["gen:<seed>"] and
    ["gen:<seed>:soak"] sugar for generated specs. *)

val cost : t -> int
(** Shrinking order: a spec with a smaller cost is a simpler repro. *)

val pp : Format.formatter -> t -> unit
