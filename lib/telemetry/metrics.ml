(* Named, labeled metric registry.

   Metrics are identified by (name, canonicalized label set).  Handles
   returned by the registration functions are plain mutable records, so
   hot paths that cache a handle pay one unboxed load/store per update;
   convenience by-name accessors re-hash on every call and are meant for
   registration-time and read-out code. *)

type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type key = { name : string; labels : labels }

type t = {
  tbl : (key, metric) Hashtbl.t;
  mutable rev_keys : key list;  (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 64; rev_keys = [] }

let find_or_add t ~name ~labels ~(make : unit -> metric) =
  let key = { name; labels = canon labels } in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add t.tbl key m;
      t.rev_keys <- key :: t.rev_keys;
      m

let type_error name expect =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with a non-%s type" name
       expect)

let counter t ?(labels = []) name =
  match find_or_add t ~name ~labels ~make:(fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | Gauge _ | Hist _ -> type_error name "counter"

let gauge t ?(labels = []) name =
  match find_or_add t ~name ~labels ~make:(fun () -> Gauge { g = 0. }) with
  | Gauge g -> g
  | Counter _ | Hist _ -> type_error name "gauge"

let histogram t ?(labels = []) ?min_value ?max_value name =
  match
    find_or_add t ~name ~labels
      ~make:(fun () -> Hist (Histogram.create ?min_value ?max_value ()))
  with
  | Hist h -> h
  | Counter _ | Gauge _ -> type_error name "histogram"

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c
let set g v = g.g <- v
let observe h v = Histogram.record h v

(* --- Read-out ------------------------------------------------------- *)

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl { name; labels = canon labels } with
  | Some (Counter c) -> c.c
  | Some (Gauge _ | Hist _) | None -> 0

(* Sum of all counters called [name], any labels. *)
let counter_total t name =
  Hashtbl.fold
    (fun k m acc ->
      match m with
      | Counter c when String.equal k.name name -> acc + c.c
      | Counter _ | Gauge _ | Hist _ -> acc)
    t.tbl 0

(* Merge of all histograms called [name], any labels; [None] if absent. *)
let histogram_total t name =
  Hashtbl.fold
    (fun k m acc ->
      match m with
      | Hist h when String.equal k.name name -> (
          match acc with
          | None -> Some (Histogram.copy h)
          | Some into ->
              Histogram.merge ~into h;
              Some into)
      | Hist _ | Counter _ | Gauge _ -> acc)
    t.tbl None

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of {
      count : int;
      sum : float;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;
    }

type row = { row_name : string; row_labels : labels; value : snapshot_value }

let snapshot_metric = function
  | Counter c -> Counter_v c.c
  | Gauge g -> Gauge_v g.g
  | Hist h ->
      Hist_v
        {
          count = Histogram.count h;
          sum = Histogram.sum h;
          mean = Histogram.mean h;
          min = Histogram.min_recorded h;
          max = Histogram.max_recorded h;
          p50 = Histogram.percentile h 0.5;
          p90 = Histogram.percentile h 0.9;
          p99 = Histogram.percentile h 0.99;
          p999 = Histogram.percentile h 0.999;
        }

(* Rows sorted by name then labels; registration order breaks no ties
   because keys are unique. *)
let snapshot t =
  List.rev_map
    (fun key ->
      {
        row_name = key.name;
        row_labels = key.labels;
        value = snapshot_metric (Hashtbl.find t.tbl key);
      })
    t.rev_keys
  |> List.sort (fun a b ->
         match String.compare a.row_name b.row_name with
         | 0 -> compare a.row_labels b.row_labels
         | c -> c)
