(** Campaign sweep specifications.

    A campaign spec is a declarative cartesian grid over the repo's
    evaluation axes — target experiment, fabric, scheme, collective,
    message size, DCQCN (TI, TD) operating point, incast fan-in,
    ablation study and seed.  Like {!Fuzz_spec}, every field is an
    integer or a name, so [to_string]/[of_string] round-trip {e exactly}
    and a printed spec is a one-line reproducer:

    {v dune exec bin/themis_campaign_cli.exe -- run --spec '<spec>' v}

    [jobs_of] expands the grid into the deterministic job list; each job
    also serializes exactly ([job_to_string]/[job_of_string]) and its
    FNV-1a hash of that canonical string ([job_hash]) is the key under
    which {!Campaign_store} files the job's result.  Changing either
    serialization silently invalidates every store and baseline, which
    is why the test suite freezes known hashes. *)

type target = Fig1 | Fig5 | Incast | Ablation | Fuzz_sweep | Workload | Arena

val target_to_string : target -> string
val target_of_string : string -> (target, string) result

type fabric =
  | Eval8  (** The scaled 8x8 / 400 Gbps evaluation fabric (§5). *)
  | Paper  (** The paper's full 16x16 fabric. *)
  | Ls_fab of { leaves : int; spines : int; hosts : int; gbps : int }

val fabric_to_string : fabric -> string
val fabric_of_string : string -> (fabric, string) result
val leaf_spine_of_fabric : fabric -> Leaf_spine.params

type t = {
  name : string;  (** Campaign id: [[a-z0-9_-]+]; names the baseline file. *)
  target : target;
  fabrics : fabric list;  (** Fig5 axis. *)
  transports : string list;  (** Fig1 axis: [sr], [gbn], [ideal]. *)
  schemes : string list;  (** Fig5/incast axis ({!Network.scheme} names). *)
  colls : string list;  (** Fig5 axis ({!Experiment.coll} names). *)
  mbs : int list;  (** Megabytes: per flow (fig1) / group (fig5) / sender. *)
  dcqcn : (int * int) list;  (** Fig5 axis: [(TI, TD)] in microseconds. *)
  fanins : int list;  (** Incast axis. *)
  studies : string list;
      (** Ablation axis: [compensation], [queue-factor], [transports],
          [filtering], [memory]. *)
  wnames : string list;  (** Workload axis ({!Workload_spec} presets). *)
  loads : int list;  (** Workload axis: offered load in % of bisection bw. *)
  scens : string list;  (** Arena axis ({!Arena_scen.known} scenarios). *)
  profile : string;  (** Fuzz generation bounds: [quick] or [soak]. *)
  seeds : int list;
}

type job =
  | Fig1_job of { transport : string; mb : int; seed : int }
  | Fig5_job of {
      fabric : fabric;
      scheme : string;
      coll : string;
      mb : int;
      ti_us : int;
      td_us : int;
      seed : int;
    }
  | Incast_job of { scheme : string; fanin : int; mb : int; seed : int }
  | Ablation_job of { study : string; seed : int }
  | Fuzz_job of { soak : bool; seed : int }
  | Workload_job of { wname : string; wscheme : string; load : int; wseed : int }
      (** A {!Workload_spec} preset with its load factor and seed
          overridden, run under one scheme by {!Workload_run}. *)
  | Arena_job of { ascheme : string; ascen : string; aseed : int }
      (** One cell of the LB-scheme arena: an {!Arena_scen} scenario run
          under one scheme name ({!Network.scheme_of_string}, so it
          includes the rival sprayers
          [reps]/[prime]/[sprinklers]/[spritz]). *)

val jobs_of : t -> job list
(** Deterministic expansion order: the axes nest in the field order
    above (fabrics outermost, seeds innermost). *)

val to_string : t -> string
val of_string : string -> (t, string) result

val job_to_string : job -> string
val job_of_string : string -> (job, string) result

val job_hash : job -> string
(** 16-hex-digit FNV-1a 64 of [job_to_string] — the store key. *)

val hash_string : string -> string
(** The same hash over an arbitrary string (used by bench for result
    records whose id is not a campaign job). *)

val validate_job : job -> (unit, string) result
(** Every name in the job resolvable (scheme, collective, transport,
    study, workload, scenario) and a workload load in (0, 200]. *)

val validate : t -> (unit, string) result
(** Every axis non-empty for the target, then {!validate_job} on every
    job of the grid. *)

val coll_of_string : string -> (Experiment.coll, string) result
val transport_of_string : string -> (Rnic.transport, string) result
val studies_known : string list

val preset : string -> t option
val preset_names : string list
(** [quick fig1 fig5a fig5b incast ablation fuzz mix load-sweep
    failures arena arena-smoke] — [quick] is the CI gate grid (small
    Fig. 5 slice), the rest regenerate the paper figures/studies; [mix],
    [load-sweep] and [failures] sweep the production-workload scenarios
    ({!Workload_spec} presets); [arena] is the full scheme x scenario
    LB matrix and [arena-smoke] its 6-job CI slice. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val equal_job : job -> job -> bool
