type compensation_row = {
  comp_enabled : bool;
  completion_us : float;
  timeouts : int;
  compensations : int;
}

let sum_timeouts net =
  Array.fold_left
    (fun acc host ->
      List.fold_left
        (fun acc s -> acc + Sender.timeouts s)
        acc
        (Rnic.senders (Network.nic net ~host)))
    0
    (Network.fabric net).Leaf_spine.hosts

let compensation ?(drops = 4) ?(seed = 5) () =
  let run comp_enabled =
    let params =
      {
        (Network.default_params ~fabric:Leaf_spine.motivation
           ~scheme:(Network.Themis { compensation = comp_enabled }))
        with
        Network.seed;
      }
    in
    let net = Network.build params in
    let ls = Network.fabric net in
    let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
    let qp = Network.connect net ~src:0 ~dst in
    let tor0 = ls.Leaf_spine.leaves.(0) in
    let spine0 = ls.Leaf_spine.spines.(0) in
    let uplink =
      Option.get (Switch.port_to (Network.switch net ~node:tor0) ~peer:spine0)
    in
    Port.inject_drops uplink drops;
    let done_at = ref None in
    Rnic.post_send qp ~bytes:2_000_000 ~on_complete:(fun t -> done_at := Some t);
    Network.run net ~until:(Sim_time.sec 10);
    let completion_us =
      match !done_at with
      | Some t -> Sim_time.to_us t
      | None -> Float.infinity
    in
    let compensations =
      match Network.themis_totals net with
      | Some t -> t.Network.compensation_sent
      | None -> 0
    in
    { comp_enabled; completion_us; timeouts = sum_timeouts net; compensations }
  in
  [ run true; run false ]

type queue_factor_row = {
  factor : float;
  underflow_forwards : int;
  blocked : int;
  retx : int;
  qf_completion_us : float;
}

let queue_factor ?(factors = [ 0.25; 0.5; 1.0; 1.5; 2.0 ])
    ?(jitter = Sim_time.zero) ?(seed = 5) () =
  List.map
    (fun factor ->
      let params =
        {
          (Network.default_params ~fabric:Leaf_spine.motivation
             ~scheme:(Network.Themis { compensation = true }))
          with
          Network.queue_factor = factor;
          last_hop_jitter = jitter;
          seed;
        }
      in
      let net = Network.build params in
      let done_ = ref 0 and last = ref Sim_time.zero in
      let qps =
        Workload.motivation_rings net ~bytes:2_000_000
          ~on_complete:(fun _ t ->
            incr done_;
            last := Sim_time.max !last t)
      in
      Network.run net ~until:(Sim_time.sec 10);
      let t = Option.get (Network.themis_totals net) in
      {
        factor;
        underflow_forwards = t.Network.nacks_forwarded_underflow;
        blocked = t.Network.nacks_blocked;
        retx = Network.total_retx_packets net;
        qf_completion_us =
          (if !done_ = List.length qps then Sim_time.to_us !last
           else Float.infinity);
      })
    factors

type transport_row = {
  label : string;
  goodput_gbps : float;
  retx_ratio : float;
  nacks_to_sender : int;
}

let run_two_rings ~label ~scheme ~transport ~seed =
  let params = Experiment.motivation_params ~scheme ~transport ~seed in
  let net = Network.build params in
  let bytes = 2_000_000 in
  let completions = ref [] in
  ignore
    (Workload.motivation_rings net ~bytes ~on_complete:(fun _ t ->
         completions := t :: !completions));
  Network.run net ~until:(Sim_time.sec 10);
  let goodputs =
    List.map
      (fun t -> float_of_int bytes *. 8. /. 1e9 /. Sim_time.to_sec t)
      !completions
  in
  let n = Stdlib.max 1 (List.length goodputs) in
  let data = Network.total_data_packets net in
  {
    label;
    goodput_gbps = List.fold_left ( +. ) 0. goodputs /. float_of_int n;
    retx_ratio =
      (if data > 0 then
         float_of_int (Network.total_retx_packets net) /. float_of_int data
       else 0.);
    nacks_to_sender = Network.total_nacks_delivered net;
  }

let transports ?(seed = 5) () =
  [
    run_two_rings ~label:"GBN (CX-4/5)" ~scheme:Network.Random_spray
      ~transport:`Gbn ~seed;
    run_two_rings ~label:"NIC-SR (CX-6/7)" ~scheme:Network.Random_spray
      ~transport:`Sr ~seed;
    run_two_rings ~label:"NIC-SR + Themis"
      ~scheme:(Network.Themis { compensation = true })
      ~transport:`Sr ~seed;
    run_two_rings ~label:"Ideal" ~scheme:Network.Random_spray ~transport:`Ideal
      ~seed;
  ]

let filtering ?(seed = 5) () =
  [
    run_two_rings ~label:"PSN spray, no filtering"
      ~scheme:Network.Psn_spray_only ~transport:`Sr ~seed;
    run_two_rings ~label:"PSN spray + Themis-D"
      ~scheme:(Network.Themis { compensation = true })
      ~transport:`Sr ~seed;
  ]

type memory_row = {
  tor_flow_tables_bytes : int;
  model_bytes : int;
  qps : int;
}

let memory_footprint ?(seed = 5) () =
  let fabric = Leaf_spine.motivation in
  let params =
    {
      (Network.default_params ~fabric
         ~scheme:(Network.Themis { compensation = true }))
      with
      Network.seed = seed;
    }
  in
  let net = Network.build params in
  let ls = Network.fabric net in
  (* Every host opens a QP to every cross-rack host: 4 x 4 x 2 = 32 QPs. *)
  let qps = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if
            Leaf_spine.leaf_index_of_host ls src
            <> Leaf_spine.leaf_index_of_host ls dst
          then begin
            incr qps;
            let qp = Network.connect net ~src ~dst in
            Rnic.post_send qp ~bytes:100_000 ~on_complete:(fun _ -> ())
          end)
        ls.Leaf_spine.hosts)
    ls.Leaf_spine.hosts;
  Network.run net ~until:(Sim_time.sec 5);
  let measured =
    List.fold_left
      (fun acc sw ->
        match Switch.themis_d sw with
        | Some d -> acc + Flow_table.memory_bytes (Themis_d.flow_table d)
        | None -> acc)
      0 (Network.tor_switches net)
  in
  (* The analytical model at the same shape: per-ToR QP count is the
     cross-rack QPs terminating there; PathMap excluded (we measure the
     flow-table side of Eq. 4). *)
  let per_qp =
    Flow_table.entry_bytes
    + Psn_queue.capacity_for ~bw:fabric.Leaf_spine.host_bw
        ~rtt:(Network.last_hop_rtt params)
        ~mtu:(Rnic.mtu + Headers.data_overhead)
        ~factor:params.Network.queue_factor
  in
  { tor_flow_tables_bytes = measured; model_bytes = per_qp * !qps; qps = !qps }
