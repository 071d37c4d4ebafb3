exception Bad_workload of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_workload s)) fmt

type result = {
  r_scheme : string;
  r_load_pct : int;
  r_target_flows : int;
  r_offered : int;
  r_completed : int;
  r_live_hwm : int;
  r_qps_created : int;
  r_bytes_offered : int;
  r_fct : (string * float) list;
  r_colls_total : int;
  r_colls_done : int;
  r_coll_tail_us : float;
  r_data_packets : int;
  r_retx_packets : int;
  r_buffer_drops : int;
  r_storm_drops : int;
  r_end_us : float;
}

let fabric_of_shape = function
  | Fuzz_spec.Ft _ -> fail "workloads run on leaf-spine shapes only"
  | Fuzz_spec.Ls _ as shape -> Fuzz_spec.leaf_spine shape

let capacity_bps (spec : Workload_spec.t) =
  Leaf_spine.bisection_bw (fabric_of_shape spec.Workload_spec.shape)

let schedule_of (c : Workload_spec.collective_job) =
  let one =
    match Schedule.collective_of_string c.Workload_spec.coll with
    | Ok coll ->
        Schedule.of_collective coll ~ranks:c.Workload_spec.ranks
          ~bytes:c.Workload_spec.coll_bytes
    | Error e -> fail "%s" e
  in
  (* Back-to-back training iterations: the step barrier of the runner
     already separates them, so repetition is plain concatenation. *)
  List.concat (List.init c.Workload_spec.iters (fun _ -> one))

(* Spread group ranks round-robin over the leaves so collective traffic
   crosses the fabric (the paper's cross-rack placement). *)
let group_members ls ~ranks =
  let n_leaves = Array.length ls.Leaf_spine.leaves in
  Array.init ranks (fun r ->
      Leaf_spine.host ls ~leaf:(r mod n_leaves) ~index:(r / n_leaves))

let run ~scheme (spec : Workload_spec.t) : result =
  (match Workload_spec.validate spec with
  | Ok () -> ()
  | Error e -> fail "invalid workload spec: %s" e);
  let scheme_v =
    match Network.scheme_of_string scheme with
    | Ok s -> s
    | Error e -> fail "bad scheme: %s" e
  in
  let fabric = fabric_of_shape spec.Workload_spec.shape in
  let params =
    {
      (Network.default_params ~fabric ~scheme:scheme_v) with
      Network.seed = spec.Workload_spec.wseed;
      telemetry = false;
    }
  in
  let net = Network.build params in
  let engine = Network.engine net in
  let ls = Network.fabric net in
  let n_hosts = Array.length ls.Leaf_spine.hosts in
  (* Failure script first: fault timelines exist before any traffic. *)
  let compiled =
    Failure_script.compile ~shape:spec.Workload_spec.shape
      spec.Workload_spec.failures
  in
  let storm_counters =
    Failure_script.schedule ~net ~shape:spec.Workload_spec.shape
      ~seed:spec.Workload_spec.wseed compiled
  in
  (* Collective overlays. *)
  let colls = Array.of_list spec.Workload_spec.colls in
  let coll_done = Array.make (Array.length colls) None in
  Array.iteri
    (fun i c ->
      let members = group_members ls ~ranks:c.Workload_spec.ranks in
      let schedule = schedule_of c in
      ignore
        (Engine.schedule_at engine ~time:c.Workload_spec.coll_start_ns
           (fun () ->
             ignore
               (Workload.launch_group ~net ~members ~schedule
                  ~on_complete:(fun ~group time ->
                    coll_done.(group) <- Some time)
                  ~group:i))))
    colls;
  (* Open-loop stream. *)
  let fct = Fct.create () in
  let arrival =
    Arrival.create ~process:spec.Workload_spec.arrival
      ~load_pct:spec.Workload_spec.load_pct
      ~capacity_bps:(Leaf_spine.bisection_bw fabric)
      ~mean_flow_bytes:(Flow_size.mean_bytes spec.Workload_spec.dist)
  in
  let stream =
    Flow_stream.start ~engine
      ~connect:(fun ~src ~dst -> Network.connect net ~src ~dst)
      ~n_hosts ~dist:spec.Workload_spec.dist ~arrival
      ~seed:spec.Workload_spec.wseed ~n_flows:spec.Workload_spec.n_flows ~fct ()
  in
  let colls_finished () = Array.for_all Option.is_some coll_done in
  let deadline = spec.Workload_spec.deadline_ns in
  (* The settle lets in-flight ACKs and post-completion control traffic
     land. *)
  Engine.drive engine
    ~finished:(fun () -> Flow_stream.all_done stream && colls_finished ())
    ~deadline ~settle:(Sim_time.ms 3);
  let stats = Flow_stream.stats stream in
  let coll_tail_us =
    Array.fold_left
      (fun acc d ->
        match d with
        | Some t -> Stdlib.max acc (Sim_time.to_us t)
        | None -> Sim_time.to_us deadline)
      0. coll_done
  in
  let end_us =
    Stdlib.max
      (Sim_time.to_us stats.Flow_stream.last_completion_ns)
      (if Array.length colls = 0 then 0. else coll_tail_us)
  in
  {
    r_scheme = scheme;
    r_load_pct = spec.Workload_spec.load_pct;
    r_target_flows = spec.Workload_spec.n_flows;
    r_offered = stats.Flow_stream.offered;
    r_completed = stats.Flow_stream.completed;
    r_live_hwm = stats.Flow_stream.live_hwm;
    r_qps_created = stats.Flow_stream.qps_created;
    r_bytes_offered = stats.Flow_stream.bytes_offered;
    r_fct = Fct.metrics fct;
    r_colls_total = Array.length colls;
    r_colls_done =
      Array.fold_left
        (fun acc d -> if Option.is_some d then acc + 1 else acc)
        0 coll_done;
    r_coll_tail_us = (if Array.length colls = 0 then 0. else coll_tail_us);
    r_data_packets = Network.total_data_packets net;
    r_retx_packets = Network.total_retx_packets net;
    r_buffer_drops = Network.total_buffer_drops net;
    r_storm_drops = Failure_script.storm_drops storm_counters;
    r_end_us = end_us;
  }

let metrics (r : result) =
  let i = float_of_int in
  [
    ("load_pct", i r.r_load_pct);
    ("target_flows", i r.r_target_flows);
    ("offered", i r.r_offered);
    ("completed", i r.r_completed);
    ("live_hwm", i r.r_live_hwm);
    ("qps_created", i r.r_qps_created);
    ("bytes_offered", i r.r_bytes_offered);
    ("colls_total", i r.r_colls_total);
    ("colls_done", i r.r_colls_done);
    ("coll_tail_us", r.r_coll_tail_us);
    ("data_packets", i r.r_data_packets);
    ("retx_packets", i r.r_retx_packets);
    ("buffer_drops", i r.r_buffer_drops);
    ("storm_drops", i r.r_storm_drops);
    ("end_us", r.r_end_us);
  ]
  @ r.r_fct

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s @@ %d%%: %d/%d flows (hwm %d, %d qps), colls %d/%d tail %.1f us@,\
     data %d retx %d drops %d storm %d, end %.1f us@]"
    r.r_scheme r.r_load_pct r.r_completed r.r_offered r.r_live_hwm
    r.r_qps_created r.r_colls_done r.r_colls_total r.r_coll_tail_us
    r.r_data_packets r.r_retx_packets r.r_buffer_drops r.r_storm_drops
    r.r_end_us
