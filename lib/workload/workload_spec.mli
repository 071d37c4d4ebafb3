(** Workload scenario specifications.

    A spec is the complete description of one production-style scenario:
    fabric shape (reusing the {!Fuzz_spec.shape} grammar), a flow-size
    distribution, an open-loop arrival process with a target load factor,
    optional collective-job overlays, and a declarative failure script.
    Every field is an integer, so [to_string]/[of_string] round-trip
    {e exactly} and a printed spec is a one-line reproducer:

    {v dune exec bin/themis_workload_cli.exe -- run --spec '<spec>' v}

    [of_string "preset:<name>"] resolves a named preset ({!preset_names})
    the campaign presets build on. *)

type collective_job = {
  coll : string;  (** A {!Schedule.collectives} name. *)
  ranks : int;
  coll_bytes : int;  (** Total payload per iteration. *)
  iters : int;  (** Back-to-back iterations (training steps). *)
  coll_start_ns : int;
}

type failure =
  | Flap of {
      flap_link : int;  (** Fabric link id ({!Fuzz_spec.fabric_link_id}). *)
      first_down_ns : int;
      down_for_ns : int;
      period_ns : int;  (** Gap between consecutive down edges. *)
      count : int;
    }
  | Spine_down of { spine : int; at_ns : int }
      (** Kills every leaf uplink of one spine, permanently. *)
  | Drop_storm of { storm_start_ns : int; storm_dur_ns : int; storm_ppm : int }
      (** Random data+ctrl drops at [storm_ppm] during the window. *)

type t = {
  wseed : int;
  shape : Fuzz_spec.shape;  (** Leaf-spine only. *)
  dist : Flow_size.dist;
  arrival : Arrival.process;
  load_pct : int;  (** Percent of bisection bandwidth offered. *)
  n_flows : int;  (** Open-loop flows to generate (0 = overlay only). *)
  colls : collective_job list;
  failures : failure list;
  deadline_ns : int;
}

val equal : t -> t -> bool

val validate : t -> (unit, string) result
(** Structural checks: leaf-spine shape with every count and rate >= 1
    ({!Fuzz_spec.validate_shape}), load in (0, 200], collective
    ranks fit the fabric, flap/spine/storm parameters sane and unable to
    disconnect any host permanently on their own. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Inverse of [to_string]; also accepts ["preset:<name>"].  Parsed specs
    are validated. *)

val small_fabric : Fuzz_spec.shape
(** The 2x2x4 / 25 Gbps leaf-spine the presets (and the streaming
    bench) run on. *)

val preset : string -> t option
val preset_names : string list
(** ["mix"] (websearch + allreduce overlay), ["sweep"] (hadoop open-loop,
    load swept by the campaign axis), ["failures"] (ON/OFF bursts under
    link flaps, a drop storm and a spine death). *)

val pp : Format.formatter -> t -> unit
