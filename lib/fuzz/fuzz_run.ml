type outcome = {
  o_scheme : string;
  o_violations : Fuzz_oracle.violation list;
  o_summary : Experiment.telemetry_summary option;
  o_events_jsonl : string;
  o_completed_us : float;
  o_data_packets : int;
  o_retx_packets : int;
  o_drops : int;
  o_ooo : int;
  o_tail_fct_us : float;
  o_themis : Network.themis_totals option;
}

exception Bad_spec of string

let schemes_of (spec : Fuzz_spec.t) =
  match spec.Fuzz_spec.schemes with
  | [] -> Fuzz_spec.all_schemes
  | ss -> ss

let scheme_of name =
  match Network.scheme_of_string name with
  | Ok s -> s
  | Error e -> raise (Bad_spec e)

let validate (spec : Fuzz_spec.t) =
  (match Fuzz_spec.validate spec with
  | Ok () -> ()
  | Error e -> raise (Bad_spec e));
  let n = Fuzz_spec.n_hosts_of_shape spec.Fuzz_spec.shape in
  List.iter
    (fun (tr : Fuzz_spec.transfer) ->
      if tr.Fuzz_spec.src < 0 || tr.Fuzz_spec.src >= n || tr.Fuzz_spec.dst < 0
         || tr.Fuzz_spec.dst >= n then
        raise
          (Bad_spec
             (Printf.sprintf "flow %d>%d outside the %d-host fabric"
                tr.Fuzz_spec.src tr.Fuzz_spec.dst n));
      if tr.Fuzz_spec.src = tr.Fuzz_spec.dst then
        raise (Bad_spec (Printf.sprintf "flow %d>%d is a self-loop"
                           tr.Fuzz_spec.src tr.Fuzz_spec.dst));
      if tr.Fuzz_spec.bytes <= 0 then
        raise (Bad_spec "flow with non-positive byte count");
      if tr.Fuzz_spec.start_ns < 0 then
        raise (Bad_spec "flow with negative start time"))
    spec.Fuzz_spec.transfers;
  match spec.Fuzz_spec.shape with
  | Fuzz_spec.Ft _ ->
      if spec.Fuzz_spec.link_faults <> [] then
        raise (Bad_spec "link faults are only supported on leaf-spine shapes");
      if spec.Fuzz_spec.slow_spine <> None then
        raise (Bad_spec "slow spines are only supported on leaf-spine shapes")
  | Fuzz_spec.Ls { n_leaves; n_spines; hosts_per_leaf; _ } ->
      (match spec.Fuzz_spec.slow_spine with
      | None -> ()
      | Some (spine, gbps) ->
          if spine < 0 || spine >= n_spines then
            raise (Bad_spec (Printf.sprintf "slow spine %d not in topology" spine));
          if gbps <= 0 then
            raise (Bad_spec "slow spine with non-positive rate"));
      let n_hosts = n_leaves * hosts_per_leaf in
      let n_links = n_hosts + (n_leaves * n_spines) in
      List.iter
        (fun (lf : Fuzz_spec.link_fault) ->
          if lf.Fuzz_spec.fault_link < n_hosts then
            raise
              (Bad_spec
                 (Printf.sprintf "link fault %d would disconnect a host"
                    lf.Fuzz_spec.fault_link));
          if lf.Fuzz_spec.fault_link >= n_links then
            raise (Bad_spec (Printf.sprintf "link %d not in topology"
                               lf.Fuzz_spec.fault_link));
          if lf.Fuzz_spec.down_ns < 0 then
            raise (Bad_spec "link fault with negative down time"))
        spec.Fuzz_spec.link_faults

(* The fabric plus, on leaf-spine shapes, the Network.t behind it for the
   leaf-spine-only hooks: link faults, slow spines, the Spritz check. *)
let build (spec : Fuzz_spec.t) ~scheme =
  let transport = if spec.Fuzz_spec.gbn then `Gbn else `Sr in
  let per_port_cap = spec.Fuzz_spec.per_port_kb * 1024 in
  let queue_factor = float_of_int spec.Fuzz_spec.queue_factor_pct /. 100. in
  match spec.Fuzz_spec.shape with
  | Fuzz_spec.Ls _ ->
      let fabric = Fuzz_spec.leaf_spine spec.Fuzz_spec.shape in
      let p0 = Network.default_params ~fabric ~scheme in
      let n =
        Network.build
          {
            p0 with
            Network.nic = { p0.Network.nic with Rnic.transport };
            per_port_cap;
            queue_factor;
            last_hop_jitter = spec.Fuzz_spec.jitter_ns;
            seed = spec.Fuzz_spec.seed;
            telemetry = true;
            telemetry_interval = Sim_time.us 200;
          }
      in
      (match spec.Fuzz_spec.slow_spine with
      | None -> ()
      | Some (spine, gbps) -> Network.set_spine_rate n ~spine ~gbps);
      (Network.core n, Some n)
  | Fuzz_spec.Ft { k; gbps; link_delay_ns } ->
      let bw = Rate.gbps (float_of_int gbps) in
      let params =
        {
          (Fat_tree_net.default_params ~k ~themis:false ()) with
          Fat_tree_net.host_bw = bw;
          fabric_bw = bw;
          link_delay = link_delay_ns;
          nic = { (Rnic.default_config ~line_rate:bw) with Rnic.transport };
          scheme;
          per_port_cap;
          queue_factor;
          ft_seed = spec.Fuzz_spec.seed;
        }
      in
      (* Network.build installs the telemetry context itself;
         Fat_tree_net has no telemetry knob, so enable one here, before
         any traffic, to the same effect. *)
      ignore (Telemetry.enable ());
      (Fat_tree_net.core (Fat_tree_net.build params), None)

type scenario = {
  core : Fabric_core.t;
  ls : Network.t option;
  fault : Fuzz_fault.counters;
  flows : Fuzz_oracle.flow_probe list;
}

let schedule_link_faults net ~mode faults =
  let eng = Network.engine net in
  List.iter
    (fun (lf : Fuzz_spec.link_fault) ->
      ignore
        (Engine.schedule_at eng ~time:lf.Fuzz_spec.down_ns (fun () ->
             Network.fail_link ~mode net ~link_id:lf.Fuzz_spec.fault_link));
      if lf.Fuzz_spec.up_ns > lf.Fuzz_spec.down_ns then
        ignore
          (Engine.schedule_at eng ~time:lf.Fuzz_spec.up_ns (fun () ->
               Network.restore_link net ~link_id:lf.Fuzz_spec.fault_link)))
    faults

let setup (spec : Fuzz_spec.t) ~scheme =
  let core, ls = build spec ~scheme in
  let eng = Fabric_core.engine core in
  let fault_rng = Rng.create ~seed:(spec.Fuzz_spec.seed lxor 0xfa017) in
  let fault =
    Fuzz_fault.install ~engine:eng ~rng:fault_rng ~spec
      ~iter_ports:(Fabric_core.iter_ports core) ()
  in
  (match ls with
  | None -> ()
  | Some n ->
      schedule_link_faults n
        ~mode:
          (if spec.Fuzz_spec.shrink_pathset then `Shrink_pathset
           else `Fallback_ecmp)
        spec.Fuzz_spec.link_faults);
  let flows =
    List.mapi
      (fun i (tr : Fuzz_spec.transfer) ->
        let qp =
          Fabric_core.connect core ~src:tr.Fuzz_spec.src ~dst:tr.Fuzz_spec.dst
        in
        let fp =
          {
            Fuzz_oracle.fp_index = i;
            fp_transfer = tr;
            fp_conn = Rnic.qp_conn qp;
            fp_packets = Fuzz_spec.packets_of_bytes spec tr.Fuzz_spec.bytes;
            fp_dst_nic = Fabric_core.nic core ~host:tr.Fuzz_spec.dst;
            fp_done = None;
          }
        in
        ignore
          (Engine.schedule_at eng ~time:tr.Fuzz_spec.start_ns (fun () ->
               Rnic.post_send qp ~bytes:tr.Fuzz_spec.bytes
                 ~on_complete:(fun t -> fp.Fuzz_oracle.fp_done <- Some t)));
        fp)
      spec.Fuzz_spec.transfers
  in
  { core; ls; fault; flows }

let view (spec : Fuzz_spec.t) ~scheme { core; ls; fault; flows } =
  let nics = Fabric_core.nics_list core in
  let total_ooo () =
    List.fold_left (fun a n -> a + Rnic.ooo_arrivals n) 0 nics
  in
  (* Sprinklers' no-overtake claim only holds when nothing else can
     reorder packets, so that probe is gated on a clean, symmetric,
     fault-free spec. *)
  let clean_symmetric =
    spec.Fuzz_spec.link_faults = []
    && spec.Fuzz_spec.slow_spine = None
    && spec.Fuzz_spec.drop_ppm = 0
    && spec.Fuzz_spec.corrupt_ppm = 0
    && spec.Fuzz_spec.dup_ppm = 0
    && spec.Fuzz_spec.delay_ppm = 0
    && spec.Fuzz_spec.jitter_ns = 0
  in
  let v_policy () =
    match (scheme : Network.scheme) with
    | Reps -> (
        match List.assoc_opt "reps_tainted_recycled" (Lb_state.counters ()) with
        | Some n when n > 0 ->
            [ ("policy-reps", Printf.sprintf "%d tainted entropies recycled" n) ]
        | _ -> [])
    | Sprinklers when clean_symmetric ->
        let ooo = total_ooo () in
        if ooo > 0 then
          [
            ( "policy-sprinklers",
              Printf.sprintf
                "%d out-of-order arrivals on a clean symmetric fabric" ooo );
          ]
        else []
    | Spritz -> (
        match ls with
        | None -> []
        | Some n ->
            let routing = Network.routing n and fab = Network.fabric n in
            List.concat_map
              (fun (tr : Fuzz_spec.transfer) ->
                let tor = Leaf_spine.tor_of_host fab tr.Fuzz_spec.src in
                let dst = tr.Fuzz_spec.dst in
                if Leaf_spine.tor_of_host fab dst = tor then []
                else
                  let sw = Network.switch n ~node:tor in
                  let w = Switch.compiled_path_weights sw ~dst in
                  let sum = Array.fold_left ( + ) 0 w in
                  let expect = Routing.path_count routing ~src:tor ~dst in
                  if sum <> expect then
                    [
                      ( "policy-spritz",
                        Printf.sprintf
                          "ToR %d weights toward host %d sum to %d, path \
                           count %d"
                          tor dst sum expect );
                    ]
                  else [])
              spec.Fuzz_spec.transfers)
    | _ -> []
  in
  {
    Fuzz_oracle.v_nics = nics;
    v_port_data_drops =
      (fun () ->
        let acc = ref 0 in
        Fabric_core.iter_ports core (fun p ->
            acc := !acc + Port.dropped_data_packets p);
        !acc);
    v_switch_data_drops =
      (fun () -> Fabric_core.sum_switches core Switch.dropped_data_packets);
    v_switch_total_drops =
      (fun () ->
        Fabric_core.sum_switches core (fun sw ->
            Switch.dropped_buffer sw + Switch.dropped_unreachable sw));
    v_themis = (fun () -> Fabric_core.themis_totals core);
    v_fault = fault;
    v_flows = flows;
    v_policy;
  }

(* Let in-flight duplicates, delayed deliveries and post-completion
   compensation NACKs (plus the retransmissions they trigger) settle
   before judging quiescence and conservation. *)
let settle_time (spec : Fuzz_spec.t) =
  Sim_time.ms 3
  + (8 * spec.Fuzz_spec.delay_max_ns)
  + (4 * spec.Fuzz_spec.jitter_ns)

let judge (spec : Fuzz_spec.t) ~scheme (view : Fuzz_oracle.view) =
  let summary = Experiment.telemetry_summary () in
  let events_jsonl =
    match Telemetry.ctx () with
    | Some ctx -> Export.events_to_jsonl ctx
    | None -> ""
  in
  let violations = Fuzz_oracle.check view ~summary in
  let deadline = spec.Fuzz_spec.deadline_ns in
  let flows = view.Fuzz_oracle.v_flows and nics = view.Fuzz_oracle.v_nics in
  let completed_us =
    List.fold_left
      (fun acc fp ->
        match fp.Fuzz_oracle.fp_done with
        | Some t -> Stdlib.max acc (Sim_time.to_us t)
        | None -> Sim_time.to_us deadline)
      0. flows
  in
  (* Worst per-flow completion time (start -> done), the arena's tail-FCT
     metric; a flow that misses the deadline counts its truncated age. *)
  let tail_fct_us =
    List.fold_left
      (fun acc fp ->
        let start = fp.Fuzz_oracle.fp_transfer.Fuzz_spec.start_ns in
        let fin =
          match fp.Fuzz_oracle.fp_done with
          | Some t -> Sim_time.to_us t
          | None -> Sim_time.to_us deadline
        in
        Stdlib.max acc (fin -. Sim_time.to_us start))
      0. flows
  in
  let fault = view.Fuzz_oracle.v_fault in
  {
    o_scheme = scheme;
    o_violations = violations;
    o_summary = summary;
    o_events_jsonl = events_jsonl;
    o_completed_us = completed_us;
    o_data_packets =
      List.fold_left (fun a n -> a + Rnic.data_packets_sent n) 0 nics;
    o_retx_packets =
      List.fold_left (fun a n -> a + Rnic.retx_packets_sent n) 0 nics;
    o_drops =
      view.Fuzz_oracle.v_port_data_drops ()
      + view.Fuzz_oracle.v_switch_data_drops ()
      + fault.Fuzz_fault.drops_data + fault.Fuzz_fault.corrupts_data;
    o_ooo = List.fold_left (fun a n -> a + Rnic.ooo_arrivals n) 0 nics;
    o_tail_fct_us = tail_fct_us;
    o_themis = view.Fuzz_oracle.v_themis ();
  }

let run_scheme (spec : Fuzz_spec.t) ~scheme : outcome =
  validate spec;
  let scheme_v = scheme_of scheme in
  let sc = setup spec ~scheme:scheme_v in
  let view = view spec ~scheme:scheme_v sc in
  Engine.drive (Fabric_core.engine sc.core)
    ~finished:(fun () -> Fuzz_oracle.all_done view)
    ~deadline:spec.Fuzz_spec.deadline_ns ~settle:(settle_time spec);
  judge spec ~scheme view

let crashed ~scheme exn =
  {
    o_scheme = scheme;
    o_violations =
      [ { Fuzz_oracle.oracle = "crash"; detail = Printexc.to_string exn } ];
    o_summary = None;
    o_events_jsonl = "";
    o_completed_us = 0.;
    o_data_packets = 0;
    o_retx_packets = 0;
    o_drops = 0;
    o_ooo = 0;
    o_tail_fct_us = 0.;
    o_themis = None;
  }

(* An engine callback that raises (a simulator bug) must count as a
   failed run, not kill the sweep: the minimizer needs the crash as an
   ordinary oracle violation to shrink against. *)
let run_scheme_safe spec ~scheme =
  match run_scheme spec ~scheme with
  | outcome -> outcome
  | exception (Bad_spec _ as e) -> raise e
  | exception exn -> crashed ~scheme exn
let run spec =
  List.map (fun scheme -> run_scheme_safe spec ~scheme) (schemes_of spec)

let failed o = o.o_violations <> []

let pp_outcome ppf o =
  Format.fprintf ppf "%-13s %7d pkts %5d retx %5d drops %9.1f us %s" o.o_scheme
    o.o_data_packets o.o_retx_packets o.o_drops o.o_completed_us
    (if failed o then
       Format.asprintf "FAIL %a"
         (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ")
            Fuzz_oracle.pp_violation)
         o.o_violations
     else "ok")
