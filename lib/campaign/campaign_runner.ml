let ok_exn what = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "Campaign_runner: %s: %s" what e)

(* A typed-telemetry context for a Fig. 1/5 or incast job ([run_job]
   ends it).  Its runs build with [telemetry = false], which leaves this
   context in place: the job records [tele_*] without the sampler's
   extra events. *)
let with_telemetry f =
  ignore (Telemetry.enable ());
  f ()

let i = float_of_int

let tele_metrics = function
  | None -> []
  | Some (s : Experiment.telemetry_summary) ->
      [
        ("tele_data_packets", i s.tele_data_packets);
        ("tele_retx_packets", i s.tele_retx_packets);
        ("tele_nacks_generated", i s.tele_nacks_generated);
        ("tele_nacks_valid", i s.tele_nacks_valid);
        ("tele_nacks_blocked", i s.tele_nacks_blocked);
        ("tele_nacks_underflow", i s.tele_nacks_underflow);
        ("tele_comp_sent", i s.tele_comp_sent);
        ("tele_comp_cancelled", i s.tele_comp_cancelled);
        ("tele_flows_completed", i s.tele_flows_completed);
        ("tele_fct_p50_us", s.tele_fct_p50_us);
        ("tele_fct_p99_us", s.tele_fct_p99_us);
        ("tele_ecn_marks", i s.tele_ecn_marks);
        ("tele_buffer_drops", i s.tele_buffer_drops);
      ]

let themis_metrics = function
  | None -> []
  | Some (t : Network.themis_totals) ->
      [
        ("themis_nacks_seen", i t.nacks_seen);
        ("themis_nacks_blocked", i t.nacks_blocked);
        ("themis_nacks_valid", i t.nacks_forwarded_valid);
        ("themis_nacks_underflow", i t.nacks_forwarded_underflow);
        ("themis_comp_sent", i t.compensation_sent);
        ("themis_comp_cancelled", i t.compensation_cancelled);
        ("themis_queue_overwrites", i t.queue_overwrites);
      ]

(* ------------------------------------------------------------------ *)
(* Fig. 1 (motivation) *)

let fig1 ~transport ~mb ~seed =
  with_telemetry (fun () ->
      let tr = ok_exn "transport" (Campaign_spec.transport_of_string transport) in
      let r =
        Experiment.run_motivation
          {
            Experiment.default_motivation with
            Experiment.msg_bytes = mb * 1_000_000;
            transport = tr;
            seed;
          }
      in
      let metrics =
        [
          ("avg_goodput_gbps", r.Experiment.avg_goodput_gbps);
          ("avg_rate_gbps", r.Experiment.avg_rate_gbps);
          ("avg_retx_ratio", r.Experiment.avg_retx_ratio);
          ("completion_us", r.Experiment.completion_us);
          ("flows", i r.Experiment.flows);
          ("nacks_generated", i r.Experiment.nacks_generated);
        ]
        @ themis_metrics r.Experiment.motivation_themis
        @ tele_metrics (Experiment.telemetry_summary ())
      in
      Campaign_result.make
        ~job:(Campaign_spec.Fig1_job { transport; mb; seed })
        ~metrics)

(* ------------------------------------------------------------------ *)
(* Fig. 5 (collectives x DCQCN) *)

let fig5 ~fabric ~scheme ~coll ~mb ~ti_us ~td_us ~seed =
  with_telemetry (fun () ->
      let scheme_v = ok_exn "scheme" (Network.scheme_of_string scheme) in
      let coll_v = ok_exn "coll" (Schedule.collective_of_string coll) in
      let cfg =
        {
          (Experiment.default_eval
             ~fabric:(Campaign_spec.leaf_spine_of_fabric fabric)
             ~scheme:scheme_v ~coll:coll_v ())
          with
          Experiment.bytes_per_group = mb * 1_000_000;
          ti_us = float_of_int ti_us;
          td_us = float_of_int td_us;
          eval_seed = seed;
        }
      in
      let r = Experiment.run_collective cfg in
      let metrics =
        [
          ("tail_ct_ms", r.Experiment.tail_ct_ms);
          ("mean_ct_ms", r.Experiment.mean_ct_ms);
          ("retx_ratio", r.Experiment.retx_ratio);
          ("nacks_generated", i r.Experiment.nacks_generated);
          ("nacks_delivered", i r.Experiment.nacks_delivered);
          ("data_packets", i r.Experiment.data_packets);
          ("ecn_marks", i r.Experiment.ecn_marks);
          ("buffer_drops", i r.Experiment.buffer_drops);
        ]
        @ themis_metrics r.Experiment.themis
        @ tele_metrics (Experiment.telemetry_summary ())
      in
      Campaign_result.make
        ~job:
          (Campaign_spec.Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed })
        ~metrics)

(* ------------------------------------------------------------------ *)
(* Incast *)

let incast ~scheme ~fanin ~mb ~seed =
  with_telemetry (fun () ->
      let scheme_v = ok_exn "scheme" (Network.scheme_of_string scheme) in
      let r =
        Experiment.run_incast
          {
            Experiment.fanin;
            incast_bytes = mb * 1_000_000;
            incast_scheme = scheme_v;
            incast_seed = seed;
          }
      in
      let metrics =
        [
          ("fct_mean_us", r.Experiment.fct_mean_us);
          ("fct_p50_us", r.Experiment.fct_p50_us);
          ("fct_p99_us", r.Experiment.fct_p99_us);
          ("retx", i r.Experiment.incast_retx);
          ("drops", i r.Experiment.incast_drops);
          ("ecn_marks", i r.Experiment.incast_ecn_marks);
        ]
        @ tele_metrics (Experiment.telemetry_summary ())
      in
      Campaign_result.make
        ~job:(Campaign_spec.Incast_job { scheme; fanin; mb; seed })
        ~metrics)

(* ------------------------------------------------------------------ *)
(* Ablation studies *)

let sanitize label =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | _ -> '_')
    label

let ablation_metrics ~study ~seed =
  match study with
  | "compensation" ->
      List.concat_map
        (fun (r : Ablation.compensation_row) ->
          let p = if r.comp_enabled then "comp_on" else "comp_off" in
          [
            (p ^ "_completion_us", r.completion_us);
            (p ^ "_timeouts", i r.timeouts);
            (p ^ "_compensations", i r.compensations);
          ])
        (Ablation.compensation ~seed ())
  | "queue-factor" | "queue-factor-jitter" ->
      let jitter =
        if study = "queue-factor-jitter" then Sim_time.us 5 else Sim_time.zero
      in
      List.concat_map
        (fun (r : Ablation.queue_factor_row) ->
          let p = Printf.sprintf "qf%d" (int_of_float (r.factor *. 100.)) in
          [
            (p ^ "_underflow", i r.underflow_forwards);
            (p ^ "_blocked", i r.blocked);
            (p ^ "_retx", i r.retx);
            (p ^ "_completion_us", r.qf_completion_us);
          ])
        (Ablation.queue_factor ~jitter ~seed ())
  | "transports" | "filtering" ->
      let rows =
        if study = "transports" then Ablation.transports ~seed ()
        else Ablation.filtering ~seed ()
      in
      List.concat_map
        (fun (r : Ablation.transport_row) ->
          let p = sanitize r.label in
          [
            (p ^ "_goodput_gbps", r.goodput_gbps);
            (p ^ "_retx_ratio", r.retx_ratio);
            (p ^ "_nacks_to_sender", i r.nacks_to_sender);
          ])
        rows
  | "memory" ->
      let m = Ablation.memory_footprint ~seed () in
      [
        ("qps", i m.Ablation.qps);
        ("measured_bytes", i m.Ablation.tor_flow_tables_bytes);
        ("model_bytes", i m.Ablation.model_bytes);
      ]
  | s -> invalid_arg (Printf.sprintf "Campaign_runner: unknown study %S" s)

let ablation ~study ~seed =
  Campaign_result.make
    ~job:(Campaign_spec.Ablation_job { study; seed })
    ~metrics:(ablation_metrics ~study ~seed)

(* ------------------------------------------------------------------ *)
(* Fuzz sweep: one generated spec, run under every scheme. *)

let fuzz ~soak ~seed =
  let profile = if soak then Fuzz_spec.Soak else Fuzz_spec.Quick in
  let spec = Fuzz_spec.generate ~profile ~seed () in
  let outcomes = Fuzz_run.run spec in
  let violations =
    List.fold_left
      (fun acc (o : Fuzz_run.outcome) -> acc + List.length o.o_violations)
      0 outcomes
  in
  let per_scheme =
    List.concat_map
      (fun (o : Fuzz_run.outcome) ->
        let p = sanitize o.o_scheme in
        [
          (p ^ "_violations", i (List.length o.o_violations));
          (p ^ "_completed_us", o.o_completed_us);
          (p ^ "_data_packets", i o.o_data_packets);
          (p ^ "_retx_packets", i o.o_retx_packets);
          (p ^ "_drops", i o.o_drops);
        ])
      outcomes
  in
  Campaign_result.make
    ~job:(Campaign_spec.Fuzz_job { soak; seed })
    ~metrics:
      ((("failures", i violations) :: ("runs", i (List.length outcomes)) :: [])
      @ per_scheme)

(* ------------------------------------------------------------------ *)
(* Workload scenarios: one Workload_spec preset with its load factor and
   seed overridden, under one scheme. *)

let workload ~wname ~wscheme ~load ~wseed =
  let spec =
    match Workload_spec.preset wname with
    | Some s -> s
    | None ->
        invalid_arg (Printf.sprintf "Campaign_runner: unknown workload %S" wname)
  in
  let spec = { spec with Workload_spec.load_pct = load; wseed } in
  let r = Workload_run.run ~scheme:wscheme spec in
  Campaign_result.make
    ~job:(Campaign_spec.Workload_job { wname; wscheme; load; wseed })
    ~metrics:(Workload_run.metrics r)

(* ------------------------------------------------------------------ *)
(* LB-scheme arena: one Arena_scen scenario under one scheme. *)

let arena ~ascheme ~ascen ~aseed =
  let spec =
    match Arena_scen.spec ~scen:ascen ~seed:aseed with
    | Ok s -> s
    | Error e -> invalid_arg (Printf.sprintf "Campaign_runner: %s" e)
  in
  let o = Fuzz_run.run_scheme_safe spec ~scheme:ascheme in
  let nb =
    match o.Fuzz_run.o_themis with
    | Some t -> t.Network.nacks_blocked
    | None -> 0
  in
  Campaign_result.make
    ~job:(Campaign_spec.Arena_job { ascheme; ascen; aseed })
    ~metrics:
      [
        ("violations", i (List.length o.Fuzz_run.o_violations));
        ("tail_fct_us", o.Fuzz_run.o_tail_fct_us);
        ("completed_us", o.Fuzz_run.o_completed_us);
        ("data_packets", i o.Fuzz_run.o_data_packets);
        ("retx_packets", i o.Fuzz_run.o_retx_packets);
        ("drops", i o.Fuzz_run.o_drops);
        ("ooo_arrivals", i o.Fuzz_run.o_ooo);
        ("nacks_blocked", i nb);
      ]

(* ------------------------------------------------------------------ *)

(* Every job ends its telemetry context, whoever enabled it (fuzz and
   arena runs install their own), so no serial job inherits the one
   before it. *)
let run_job job =
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  match job with
  | Campaign_spec.Fig1_job { transport; mb; seed } -> fig1 ~transport ~mb ~seed
  | Campaign_spec.Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed } ->
      fig5 ~fabric ~scheme ~coll ~mb ~ti_us ~td_us ~seed
  | Campaign_spec.Incast_job { scheme; fanin; mb; seed } ->
      incast ~scheme ~fanin ~mb ~seed
  | Campaign_spec.Ablation_job { study; seed } -> ablation ~study ~seed
  | Campaign_spec.Fuzz_job { soak; seed } -> fuzz ~soak ~seed
  | Campaign_spec.Workload_job { wname; wscheme; load; wseed } ->
      workload ~wname ~wscheme ~load ~wseed
  | Campaign_spec.Arena_job { ascheme; ascen; aseed } ->
      arena ~ascheme ~ascen ~aseed

let headline_metrics = function
  | Campaign_spec.Fig1_job _ -> [ "avg_goodput_gbps"; "avg_retx_ratio" ]
  | Campaign_spec.Fig5_job _ -> [ "tail_ct_ms"; "mean_ct_ms" ]
  | Campaign_spec.Incast_job _ -> [ "fct_p50_us"; "fct_p99_us" ]
  | Campaign_spec.Ablation_job _ -> []
  | Campaign_spec.Fuzz_job _ -> [ "failures" ]
  | Campaign_spec.Workload_job _ -> [ "completed"; "fct_p99_us" ]
  | Campaign_spec.Arena_job _ -> [ "tail_fct_us"; "violations" ]
