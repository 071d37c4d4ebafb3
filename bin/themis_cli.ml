(* Command-line driver for the Themis experiments.

   Subcommands map one-to-one onto the paper's figures and tables:

     themis_cli motivation   -- Fig. 1b/1c/1d (NIC-SR vs Ideal, spraying)
     themis_cli fig5         -- Fig. 5a/5b (collectives x DCQCN sweep)
     themis_cli table1       -- Section 4 memory-overhead model
     themis_cli ablation     -- compensation / queue-factor / scheme ablations *)

open Cmdliner

(* Numeric flags are range-checked before anything is built: a bad
   value exits 2 with a message naming the flag, never 125 from an
   [Invalid_argument] raised deep inside a constructor. *)
let bad_input fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "themis_cli: %s@." msg;
      exit 2)
    fmt

let payload_bytes ~flag mb =
  let bytes = int_of_float (mb *. 1e6) in
  if bytes <= 0 then bad_input "--%s %g: the payload must be positive" flag mb;
  bytes

let pp_series ~header series =
  Format.printf "  %s@." header;
  List.iter (fun (t, v) -> Format.printf "    %10.1f  %8.4f@." t v) series

let motivation_cmd =
  let msg_mb =
    Arg.(value & opt float 10. & info [ "msg-mb" ] ~doc:"Per-flow megabytes.")
  in
  let series =
    Arg.(value & flag & info [ "series" ] ~doc:"Print the full time series.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let csv_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "csv-dir" ] ~docv:"DIR"
          ~doc:"Write fig1b.csv / fig1c.csv to the existing directory $(docv).")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "Enable the typed telemetry subsystem for the NIC-SR run and \
             print a metric/event summary.  With $(b,--csv-dir), also write \
             telemetry_metrics.csv and telemetry_events.jsonl.")
  in
  let run msg_mb series seed csv_dir telemetry =
    let bytes_ = payload_bytes ~flag:"msg-mb" msg_mb in
    let run_one ?(telemetry = false) transport =
      Experiment.run_motivation
        {
          Experiment.default_motivation with
          msg_bytes = bytes_;
          transport;
          seed;
          telemetry;
        }
    in
    Format.printf "Motivation (Fig. 1): 8 hosts, 2x4 leaf-spine, 100 Gbps, random spraying@.";
    Format.printf "per-flow payload: %.1f MB@." msg_mb;
    (* Ideal first: the telemetry context installed for the NIC-SR run must
       not absorb records from a second build. *)
    let ideal = run_one `Ideal in
    let sr = run_one ~telemetry `Sr in
    Format.printf "@.NIC-SR:@.";
    Format.printf "  avg spurious-retransmission ratio  %.3f   (paper Fig.1b avg: 0.16)@."
      sr.Experiment.avg_retx_ratio;
    Format.printf "  watched-flow avg sending rate      %.1f Gbps (paper Fig.1c avg: 86)@."
      sr.Experiment.avg_rate_gbps;
    Format.printf "  avg flow throughput                %.2f Gbps (paper Fig.1d: 68.09)@."
      sr.Experiment.avg_goodput_gbps;
    Format.printf "  NACKs generated                    %d@." sr.Experiment.nacks_generated;
    Format.printf "@.Ideal transport:@.";
    Format.printf "  avg flow throughput                %.2f Gbps (paper Fig.1d: 95.43)@."
      ideal.Experiment.avg_goodput_gbps;
    if series then begin
      pp_series ~header:"Fig.1b retx ratio (time us, ratio)" sr.Experiment.retx_series;
      pp_series ~header:"Fig.1c sending rate (time us, Gbps)" sr.Experiment.rate_series
    end;
    (match sr.Experiment.telemetry with
    | None -> ()
    | Some s ->
        Format.printf "@.Telemetry (NIC-SR run):@.";
        Format.printf "  data packets %d, retx %d, NACKs generated %d@."
          s.Experiment.tele_data_packets s.Experiment.tele_retx_packets
          s.Experiment.tele_nacks_generated;
        Format.printf
          "  NACK verdicts: valid %d, blocked %d, underflow %d; compensation \
           sent %d / cancelled %d@."
          s.Experiment.tele_nacks_valid s.Experiment.tele_nacks_blocked
          s.Experiment.tele_nacks_underflow s.Experiment.tele_comp_sent
          s.Experiment.tele_comp_cancelled;
        Format.printf "  flows completed %d, FCT p50 %.1f us, p99 %.1f us@."
          s.Experiment.tele_flows_completed s.Experiment.tele_fct_p50_us
          s.Experiment.tele_fct_p99_us;
        Format.printf "  ECN marks %d, buffer drops %d, events %d (%d dropped)@."
          s.Experiment.tele_ecn_marks s.Experiment.tele_buffer_drops
          s.Experiment.tele_events s.Experiment.tele_events_dropped;
        (match Telemetry.ctx () with
        | Some ctx -> Format.printf "@.%a" Export.pp_events_by_kind ctx
        | None -> ()));
    match csv_dir with
    | None -> ()
    | Some dir ->
        Csv_export.write_series
          ~path:(Filename.concat dir "fig1b.csv")
          ~header:("time_us", "retx_ratio") sr.Experiment.retx_series;
        Csv_export.write_series
          ~path:(Filename.concat dir "fig1c.csv")
          ~header:("time_us", "rate_gbps") sr.Experiment.rate_series;
        Format.printf "@.wrote %s/fig1b.csv and fig1c.csv@." dir;
        if telemetry then begin
          (match Telemetry.metrics () with
          | Some m ->
              let path = Filename.concat dir "telemetry_metrics.csv" in
              Export.write_metrics_csv ~path m;
              Format.printf "wrote %s@." path
          | None -> ());
          match Telemetry.ctx () with
          | Some ctx ->
              let path = Filename.concat dir "telemetry_events.jsonl" in
              Export.write_events ~path ctx;
              Format.printf "wrote %s@." path
          | None -> ()
        end
  in
  Cmd.v (Cmd.info "motivation" ~doc:"Figure 1 motivation experiment")
    Term.(const run $ msg_mb $ series $ seed $ csv_dir $ telemetry)

let fig5_cmd =
  let coll_arg =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Schedule.collective_of_string s)
    in
    let print ppf c =
      Format.pp_print_string ppf (Schedule.collective_to_string c)
    in
    Arg.conv (parse, print)
  in
  let coll =
    Arg.(
      value
      & opt coll_arg Schedule.Allreduce
      & info [ "coll" ]
          ~doc:
            ("Collective: "
            ^ String.concat "|" (List.map fst Schedule.collectives)
            ^ "."))
  in
  let mb =
    Arg.(value & opt float 4. & info [ "mb" ] ~doc:"Collective megabytes per group.")
  in
  let full =
    Arg.(value & flag & info [ "paper-scale" ] ~doc:"Use the 16x16 fabric of the paper.")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"RNG seed.") in
  let run coll mb full seed =
    let bytes_per_group = payload_bytes ~flag:"mb" mb in
    let fabric =
      if full then Leaf_spine.paper_eval else Experiment.scaled_eval_fabric
    in
    Format.printf
      "Fig. 5 (%s): %dx%d leaf-spine, %d groups, %.1f MB per group@."
      (Schedule.collective_to_string coll)
      fabric.Leaf_spine.n_leaves fabric.Leaf_spine.n_spines
      fabric.Leaf_spine.hosts_per_leaf mb;
    Format.printf "%-12s" "scheme";
    List.iter
      (fun (ti, td) -> Format.printf "  (%4.0f,%4.0f)" ti td)
      Experiment.dcqcn_sweep;
    Format.printf "   (tail completion time, ms)@.";
    List.iter
      (fun scheme ->
        Format.printf "%-12s" (Network.scheme_to_string scheme);
        List.iter
          (fun (ti_us, td_us) ->
            let cfg =
              {
                (Experiment.default_eval ~fabric ~scheme ~coll ()) with
                Experiment.bytes_per_group;
                ti_us;
                td_us;
                eval_seed = seed;
              }
            in
            let r = Experiment.run_collective cfg in
            Format.printf "  %10.3f" r.Experiment.tail_ct_ms)
          Experiment.dcqcn_sweep;
        Format.printf "@.")
      Experiment.fig5_schemes
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Figure 5 collective sweep")
    Term.(const run $ coll $ mb $ full $ seed)

let ablation_cmd =
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"RNG seed.") in
  let run seed =
    Format.printf "== compensation on/off under %d forced drops ==@." 4;
    List.iter
      (fun r ->
        Format.printf "  compensation %-3s: completion %8.1f us, %d timeouts, %d compensation NACKs@."
          (if r.Ablation.comp_enabled then "on" else "off")
          r.Ablation.completion_us r.Ablation.timeouts r.Ablation.compensations)
      (Ablation.compensation ~seed ());
    Format.printf "@.== ring capacity factor F ==@.";
    List.iter
      (fun r ->
        Format.printf "  F=%-5.2f blocked=%-6d underflow=%-4d retx=%-5d completion %8.1f us@."
          r.Ablation.factor r.Ablation.blocked r.Ablation.underflow_forwards
          r.Ablation.retx r.Ablation.qf_completion_us)
      (Ablation.queue_factor ~seed ());
    Format.printf "@.== transport generations ==@.";
    List.iter
      (fun r ->
        Format.printf "  %-26s %6.1f Gbps, retx ratio %.3f, %d NACKs to sender@."
          r.Ablation.label r.Ablation.goodput_gbps r.Ablation.retx_ratio
          r.Ablation.nacks_to_sender)
      (Ablation.transports ~seed ());
    Format.printf "@.== NACK filtering value ==@.";
    List.iter
      (fun r ->
        Format.printf "  %-26s %6.1f Gbps, retx ratio %.3f, %d NACKs to sender@."
          r.Ablation.label r.Ablation.goodput_gbps r.Ablation.retx_ratio
          r.Ablation.nacks_to_sender)
      (Ablation.filtering ~seed ())
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablations")
    Term.(const run $ seed)

let fattree_cmd =
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Fat-tree radix (k/2 a power of two).") in
  let mb = Arg.(value & opt float 2. & info [ "mb" ] ~doc:"Megabytes per flow.") in
  let themis = Arg.(value & flag & info [ "no-themis" ] ~doc:"Disable Themis (plain ECMP).") in
  let run k mb no_themis =
    (* k/2 a power of two with k even: k itself a power of two. *)
    if k < 4 || k land (k - 1) <> 0 then
      bad_input "-k %d: the radix must be a power of two >= 4" k;
    let bytes = payload_bytes ~flag:"mb" mb in
    let net =
      Fat_tree_net.build (Fat_tree_net.default_params ~k ~themis:(not no_themis) ())
    in
    let ft = Fat_tree_net.fat_tree net in
    let hosts = ft.Fat_tree.hosts in
    let n = Array.length hosts in
    let completed = ref 0 and last = ref Sim_time.zero in
    Array.iteri
      (fun i src ->
        let dst = hosts.((i + (n / 2)) mod n) in
        let qp = Fat_tree_net.connect net ~src ~dst in
        Rnic.post_send qp ~bytes
          ~on_complete:(fun t ->
            incr completed;
            last := Sim_time.max !last t))
      hosts;
    Fat_tree_net.run net ~until:(Sim_time.sec 30);
    Format.printf "k=%d fat tree, %d hosts, %d paths, themis=%b@." k n
      (Fat_tree_net.n_paths net) (not no_themis);
    Format.printf "flows %d/%d, tail completion %a@." !completed n Sim_time.pp !last;
    Format.printf "spurious retx %d, NACKs to senders %d@."
      (Fat_tree_net.total_retx_packets net)
      (Fat_tree_net.total_nacks_delivered net)
  in
  Cmd.v (Cmd.info "fattree" ~doc:"3-tier fat-tree run (sport-rewrite Themis)")
    Term.(const run $ k $ mb $ themis)

let incast_cmd =
  let fanin = Arg.(value & opt int 8 & info [ "fanin" ] ~doc:"Senders per receiver.") in
  let mb = Arg.(value & opt float 1. & info [ "mb" ] ~doc:"Megabytes per sender.") in
  let run fanin mb =
    if fanin < 1 then bad_input "--fanin %d: need at least one sender" fanin;
    let incast_bytes = payload_bytes ~flag:"mb" mb in
    Format.printf "%d-to-1 incast, %.1f MB per sender, 100 Gbps receiver link@.@."
      fanin mb;
    Format.printf "%-22s %10s %10s %10s %8s %8s@." "scheme" "mean(us)" "p50(us)"
      "p99(us)" "retx" "drops";
    List.iter
      (fun scheme ->
        let r =
          Experiment.run_incast
            {
              (Experiment.default_incast ~scheme) with
              Experiment.fanin;
              incast_bytes;
            }
        in
        Format.printf "%-22s %10.1f %10.1f %10.1f %8d %8d@."
          (Network.scheme_to_string scheme)
          r.Experiment.fct_mean_us r.Experiment.fct_p50_us
          r.Experiment.fct_p99_us r.Experiment.incast_retx
          r.Experiment.incast_drops)
      [
        Network.Ecmp;
        Network.Adaptive;
        Network.Random_spray;
        Network.Themis { compensation = true };
      ]
  in
  Cmd.v (Cmd.info "incast" ~doc:"N-to-1 incast stressor")
    Term.(const run $ fanin $ mb)

let table1_cmd =
  let run () = Memory_model.pp_report Format.std_formatter Memory_model.table1 in
  Cmd.v (Cmd.info "table1" ~doc:"Section 4 memory model") Term.(const run $ const ())

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "themis_cli" ~doc:"Themis experiment driver")
          [
            motivation_cmd;
            fig5_cmd;
            table1_cmd;
            ablation_cmd;
            fattree_cmd;
            incast_cmd;
          ]))
