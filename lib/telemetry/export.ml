(* Writers: JSON-lines event dumps, CSV metric summaries, and a
   pretty-printed table for terminal use. *)

let write_string path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* --- Events ----------------------------------------------------------- *)

let events_to_jsonl ctx =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (time, ev) ->
      Buffer.add_string buf (Event.to_json ~time ev);
      Buffer.add_char buf '\n')
    (Telemetry.events ctx);
  Buffer.contents buf

let write_events ~path ctx = write_string path (events_to_jsonl ctx)

(* --- Metrics ---------------------------------------------------------- *)

let labels_to_string labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let metrics_csv_header =
  "name,labels,type,value,count,sum,mean,min,max,p50,p90,p99,p999"

let fl v = if Float.is_nan v then "" else Printf.sprintf "%g" v

let metrics_to_csv registry =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf metrics_csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun { Metrics.row_name; row_labels; value } ->
      Buffer.add_string buf (csv_quote row_name);
      Buffer.add_char buf ',';
      Buffer.add_string buf (csv_quote (labels_to_string row_labels));
      (match value with
      | Metrics.Counter_v c ->
          Buffer.add_string buf (Printf.sprintf ",counter,%d,,,,,,,,," c)
      | Metrics.Gauge_v g ->
          Buffer.add_string buf (Printf.sprintf ",gauge,%s,,,,,,,,," (fl g))
      | Metrics.Hist_v h ->
          Buffer.add_string buf
            (Printf.sprintf ",histogram,,%d,%s,%s,%s,%s,%s,%s,%s,%s" h.count
               (fl h.sum) (fl h.mean) (fl h.min) (fl h.max) (fl h.p50)
               (fl h.p90) (fl h.p99) (fl h.p999)));
      Buffer.add_char buf '\n')
    (Metrics.snapshot registry);
  Buffer.contents buf

let write_metrics_csv ~path registry = write_string path (metrics_to_csv registry)

let pp_events_by_kind ppf ctx =
  List.iter
    (fun (kind, n) ->
      if n > 0 then Format.fprintf ppf "  %-32s %14d@." kind n)
    (Telemetry.events_by_kind ctx)
