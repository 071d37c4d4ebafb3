(** Telemetry writers: JSON-lines event dumps and CSV / pretty-printed
    metric summaries. *)

val events_to_jsonl : Telemetry.t -> string
(** One JSON object per retained event, oldest first, keys [t_ns],
    [kind], then the event's fields. *)

val write_events : path:string -> Telemetry.t -> unit

val metrics_to_csv : Metrics.t -> string
(** Header [name,labels,type,value,count,sum,mean,min,max,p50,p90,p99,p999];
    histogram rows leave [value] empty, scalar rows leave the
    distribution columns empty. *)

val write_metrics_csv : path:string -> Metrics.t -> unit

val pp_events_by_kind : Format.formatter -> Telemetry.t -> unit

val labels_to_string : Metrics.labels -> string
