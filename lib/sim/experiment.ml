type series = (float * float) list

(* --- Telemetry read-out ------------------------------------------------ *)

type telemetry_summary = {
  tele_data_packets : int;
  tele_retx_packets : int;
  tele_nacks_generated : int;
  tele_nacks_valid : int;
  tele_nacks_blocked : int;
  tele_nacks_underflow : int;
  tele_comp_sent : int;
  tele_comp_cancelled : int;
  tele_flows_completed : int;
  tele_fct_p50_us : float;
  tele_fct_p99_us : float;
  tele_ecn_marks : int;
  tele_buffer_drops : int;
  tele_events : int;
  tele_events_dropped : int;
}

let telemetry_summary () =
  match Telemetry.ctx () with
  | None -> None
  | Some ctx ->
      let m = Telemetry.metrics_exn () in
      let nacks v = Metrics.counter_value m ~labels:[ ("verdict", v) ] "themis_nacks" in
      let comp a =
        Metrics.counter_value m ~labels:[ ("action", a) ] "themis_compensation"
      in
      let fct p =
        match Metrics.histogram_total m "fct_us" with
        | Some h -> Histogram.percentile h p
        | None -> 0.
      in
      Some
        {
          tele_data_packets = Metrics.counter_total m "data_packets_sent";
          tele_retx_packets = Metrics.counter_total m "retx_packets";
          tele_nacks_generated = Metrics.counter_total m "nacks_generated";
          tele_nacks_valid = nacks "valid";
          tele_nacks_blocked = nacks "blocked";
          tele_nacks_underflow = nacks "underflow";
          tele_comp_sent = comp "sent";
          tele_comp_cancelled = comp "cancelled";
          tele_flows_completed = Metrics.counter_total m "flows_completed";
          tele_fct_p50_us = fct 0.5;
          tele_fct_p99_us = fct 0.99;
          tele_ecn_marks = Metrics.counter_total m "ecn_marks";
          tele_buffer_drops = Metrics.counter_total m "switch_dropped_packets";
          tele_events =
            List.fold_left
              (fun acc (_, n) -> acc + n)
              0
              (Telemetry.events_by_kind ctx);
          tele_events_dropped = Telemetry.events_dropped ctx;
        }

let pp_telemetry_summary ppf s =
  Format.fprintf ppf
    "@[<v>data %d retx %d@,\
     nacks gen %d valid %d blocked %d underflow %d@,\
     comp sent %d cancelled %d@,\
     flows %d fct p50 %.2fus p99 %.2fus@,\
     ecn %d drops %d events %d (%d dropped)@]"
    s.tele_data_packets s.tele_retx_packets s.tele_nacks_generated
    s.tele_nacks_valid s.tele_nacks_blocked s.tele_nacks_underflow
    s.tele_comp_sent s.tele_comp_cancelled s.tele_flows_completed
    s.tele_fct_p50_us s.tele_fct_p99_us s.tele_ecn_marks s.tele_buffer_drops
    s.tele_events s.tele_events_dropped

type motivation_config = {
  msg_bytes : int;
  transport : Rnic.transport;
  scheme : Network.scheme;
  seed : int;
  telemetry : bool;
}

let default_motivation =
  {
    msg_bytes = 10_000_000;
    transport = `Sr;
    scheme = Network.Random_spray;
    seed = 7;
    telemetry = false;
  }

type motivation_result = {
  retx_series : series;
  rate_series : series;
  avg_retx_ratio : float;
  avg_rate_gbps : float;
  avg_goodput_gbps : float;
  flows : int;
  completion_us : float;
  nacks_generated : int;
  motivation_themis : Network.themis_totals option;
  telemetry : telemetry_summary option;
}

(* Width of the Fig. 1b/1c time-series buckets. *)
let series_bucket = Sim_time.us 20

let motivation_params ~scheme ~transport ~seed =
  let base = Network.default_params ~fabric:Leaf_spine.motivation ~scheme in
  (* Classic DCQCN operating point (55 us increase timer, 50 us CNP /
     decrease interval); Fig. 5 sweeps these separately. *)
  let cc = Dcqcn.with_ti_td base.Network.nic.Rnic.cc ~ti_us:55. ~td_us:50. in
  { base with Network.nic = { base.Network.nic with Rnic.transport; cc }; seed }

let run_motivation (cfg : motivation_config) =
  let params =
    {
      (motivation_params ~scheme:cfg.scheme ~transport:cfg.transport
         ~seed:cfg.seed)
      with
      Network.telemetry = cfg.telemetry;
    }
  in
  let net = Network.build params in
  (* Ring transfers: each member sends msg_bytes to its successor, all
     starting together (one step, no barrier semantics needed beyond
     completion tracking). *)
  let completions : (Flow_id.t * Sim_time.t) list ref = ref [] in
  let qps =
    Workload.motivation_rings net ~bytes:cfg.msg_bytes
      ~on_complete:(fun qp time ->
        completions := (Rnic.qp_conn qp, time) :: !completions)
  in
  let watched_conn = Rnic.qp_conn (List.hd qps) in
  (* Per-bucket wire bytes and retransmission counts for the watched flow;
     run-wide counters come from the NIC aggregates. *)
  let rate_ts = Stats.Time_series.create ~bucket:series_bucket in
  let retx_ts = Stats.Time_series.create ~bucket:series_bucket in
  let total_ts = Stats.Time_series.create ~bucket:series_bucket in
  let engine = Network.engine net in
  Array.iter
    (fun host ->
      Rnic.set_on_data_tx (Network.nic net ~host) (fun pkt ->
          if Flow_id.equal pkt.Packet.conn watched_conn then begin
            let now = Engine.now engine in
            Stats.Time_series.add rate_ts ~time:now
              (float_of_int pkt.Packet.size);
            Stats.Time_series.add total_ts ~time:now 1.;
            if pkt.Packet.retransmission then
              Stats.Time_series.add retx_ts ~time:now 1.
          end))
      (Network.fabric net).Leaf_spine.hosts;
  Network.run net ~until:(Sim_time.sec 30);
  let flows = List.length qps in
  let completed = List.length !completions in
  if completed < flows then
    failwith
      (Printf.sprintf "motivation: only %d/%d flows completed" completed flows);
  let completion_us =
    List.fold_left
      (fun acc (_, t) -> Stdlib.max acc (Sim_time.to_us t))
      0. !completions
  in
  (* Retransmission ratio per bucket = retx packets / data packets. *)
  let totals = Stats.Time_series.sums total_ts in
  let retxs = Stats.Time_series.sums retx_ts in
  let retx_series =
    List.map
      (fun (ts, total) ->
        let retx =
          match List.assoc_opt ts retxs with Some v -> v | None -> 0.
        in
        (Sim_time.to_us ts, if total > 0. then retx /. total else 0.))
      totals
  in
  let rate_series =
    List.map
      (fun (ts, bytes_per_sec) -> (Sim_time.to_us ts, bytes_per_sec *. 8. /. 1e9))
      (Stats.Time_series.rate_per_sec rate_ts)
  in
  let total_data = Network.total_data_packets net in
  let total_retx = Network.total_retx_packets net in
  let avg_retx_ratio =
    if total_data > 0 then float_of_int total_retx /. float_of_int total_data
    else 0.
  in
  (* Watched-flow average wire rate over its own active period. *)
  let watched_completion =
    match List.assoc_opt watched_conn !completions with
    | Some t -> Sim_time.to_sec t
    | None -> Sim_time.to_sec (Network.now net)
  in
  let watched_bytes =
    List.fold_left (fun acc (_, s, _) -> acc +. s) 0.
      (Stats.Time_series.buckets rate_ts)
  in
  let avg_rate_gbps =
    if watched_completion > 0. then watched_bytes *. 8. /. 1e9 /. watched_completion
    else 0.
  in
  (* Mean per-flow goodput: message payload over flow completion time. *)
  let goodputs =
    List.map
      (fun (_, t) ->
        float_of_int cfg.msg_bytes *. 8. /. 1e9 /. Sim_time.to_sec t)
      !completions
  in
  let avg_goodput_gbps =
    List.fold_left ( +. ) 0. goodputs /. float_of_int (List.length goodputs)
  in
  {
    retx_series;
    rate_series;
    avg_retx_ratio;
    avg_rate_gbps;
    avg_goodput_gbps;
    flows;
    completion_us;
    nacks_generated = Network.total_nacks_generated net;
    motivation_themis = Network.themis_totals net;
    telemetry = (if cfg.telemetry then telemetry_summary () else None);
  }

(* --- Figure 5: collectives under DCQCN parameter sweep ---------------- *)

type coll = Schedule.collective =
  | Allreduce | Hd_allreduce | Alltoall | Allgather | Reduce_scatter

type eval_config = {
  fabric : Leaf_spine.params;
  scheme : Network.scheme;
  coll : coll;
  bytes_per_group : int;
  ti_us : float;
  td_us : float;
  eval_seed : int;
}

let scaled_eval_fabric =
  {
    Leaf_spine.paper_eval with
    Leaf_spine.n_leaves = 8;
    n_spines = 8;
    hosts_per_leaf = 8;
  }

let default_eval ?(fabric = scaled_eval_fabric) ~scheme ~coll () =
  {
    fabric;
    scheme;
    coll;
    bytes_per_group = 4_000_000;
    ti_us = 900.;
    td_us = 4.;
    eval_seed = 11;
  }

type eval_result = {
  tail_ct_ms : float;
  mean_ct_ms : float;
  per_group_ms : float list;
  retx_ratio : float;
  nacks_generated : int;
  nacks_delivered : int;
  data_packets : int;
  ecn_marks : int;
  buffer_drops : int;
  themis : Network.themis_totals option;
}

let run_collective (cfg : eval_config) =
  let params =
    let base = Network.default_params ~fabric:cfg.fabric ~scheme:cfg.scheme in
    let cc = Dcqcn.with_ti_td base.Network.nic.Rnic.cc ~ti_us:cfg.ti_us ~td_us:cfg.td_us in
    {
      base with
      Network.nic =
        {
          base.Network.nic with
          Rnic.cc;
          (* Receiver CNP pacing follows the decrease interval so TD
             controls the frequency of rate reductions end to end. *)
          cnp_interval = Sim_time.us_f cfg.td_us;
        };
      seed = cfg.eval_seed;
    }
  in
  let net = Network.build params in
  let groups = Workload.cross_rack_groups (Network.fabric net) in
  let n_groups = Array.length groups in
  let completions = Array.make n_groups None in
  let runs =
    Array.mapi
      (fun g members ->
        let schedule =
          Schedule.of_collective cfg.coll ~ranks:(Array.length members)
            ~bytes:cfg.bytes_per_group
        in
        Workload.launch_group ~net ~members ~schedule ~group:g
          ~on_complete:(fun ~group time -> completions.(group) <- Some time))
      groups
  in
  ignore runs;
  Network.run net ~until:(Sim_time.sec 60);
  let per_group =
    Array.to_list
      (Array.mapi
         (fun g c ->
           match c with
           | Some t -> Sim_time.to_ms t
           | None ->
               failwith (Printf.sprintf "collective: group %d did not finish" g))
         completions)
  in
  let tail = List.fold_left Stdlib.max 0. per_group in
  let mean =
    List.fold_left ( +. ) 0. per_group /. float_of_int (List.length per_group)
  in
  let data = Network.total_data_packets net in
  let retx = Network.total_retx_packets net in
  {
    tail_ct_ms = tail;
    mean_ct_ms = mean;
    per_group_ms = per_group;
    retx_ratio = (if data > 0 then float_of_int retx /. float_of_int data else 0.);
    nacks_generated = Network.total_nacks_generated net;
    nacks_delivered = Network.total_nacks_delivered net;
    data_packets = data;
    ecn_marks = Network.total_ecn_marks net;
    buffer_drops = Network.total_buffer_drops net;
    themis = Network.themis_totals net;
  }

(* --- Incast ----------------------------------------------------------- *)

type incast_config = {
  fanin : int;
  incast_bytes : int;
  incast_scheme : Network.scheme;
  incast_seed : int;
}

let default_incast ~scheme =
  { fanin = 8; incast_bytes = 1_000_000; incast_scheme = scheme; incast_seed = 3 }

type incast_result = {
  fct_mean_us : float;
  fct_p50_us : float;
  fct_p99_us : float;
  incast_retx : int;
  incast_drops : int;
  incast_ecn_marks : int;
}

let run_incast (cfg : incast_config) =
  if cfg.fanin < 1 then invalid_arg "Experiment.run_incast: fanin";
  let fabric =
    {
      Leaf_spine.motivation with
      Leaf_spine.hosts_per_leaf = cfg.fanin;
      n_spines = 4;
    }
  in
  let params =
    let base = Network.default_params ~fabric ~scheme:cfg.incast_scheme in
    { base with Network.seed = cfg.incast_seed }
  in
  let net = Network.build params in
  let ls = Network.fabric net in
  let receiver = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let fcts = Stats.Summary.create () in
  for i = 0 to cfg.fanin - 1 do
    let src = Leaf_spine.host ls ~leaf:0 ~index:i in
    let qp = Network.connect net ~src ~dst:receiver in
    Rnic.post_send qp ~bytes:cfg.incast_bytes ~on_complete:(fun t ->
        Stats.Summary.add fcts (Sim_time.to_us t))
  done;
  Network.run net ~until:(Sim_time.sec 30);
  if Stats.Summary.count fcts < cfg.fanin then
    failwith "incast: not all flows completed";
  {
    fct_mean_us = Stats.Summary.mean fcts;
    fct_p50_us = Stats.Summary.percentile fcts 0.5;
    fct_p99_us = Stats.Summary.percentile fcts 0.99;
    incast_retx = Network.total_retx_packets net;
    incast_drops = Network.total_buffer_drops net;
    incast_ecn_marks = Network.total_ecn_marks net;
  }
