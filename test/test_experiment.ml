(* The experiment harnesses behind the paper's figures, at reduced scale
   so the suite stays fast. *)

let small_motivation transport =
  {
    Experiment.default_motivation with
    Experiment.msg_bytes = 1_000_000;
    transport;
  }

let test_motivation_runs () =
  let r = Experiment.run_motivation (small_motivation `Sr) in
  Alcotest.(check int) "eight flows" 8 r.Experiment.flows;
  Alcotest.(check bool) "finite completion" true (r.Experiment.completion_us > 0.);
  Alcotest.(check bool) "rate series non-empty" true
    (List.length r.Experiment.rate_series > 2);
  Alcotest.(check bool) "retx series non-empty" true
    (List.length r.Experiment.retx_series > 2);
  Alcotest.(check bool) "rates within line" true
    (List.for_all (fun (_, g) -> g >= 0. && g <= 101.) r.Experiment.rate_series);
  Alcotest.(check bool) "ratios within [0,1]" true
    (List.for_all (fun (_, x) -> x >= 0. && x <= 1.) r.Experiment.retx_series)

let test_motivation_sr_vs_ideal () =
  (* Fig. 1d's shape: NIC-SR with spraying loses throughput; the Ideal
     transport is close to line rate and suffers no retransmissions. *)
  let sr = Experiment.run_motivation (small_motivation `Sr) in
  let ideal = Experiment.run_motivation (small_motivation `Ideal) in
  Alcotest.(check bool) "SR generates NACKs" true (sr.Experiment.nacks_generated > 0);
  Alcotest.(check bool) "SR has spurious retx" true (sr.Experiment.avg_retx_ratio > 0.02);
  Alcotest.(check (float 1e-9)) "ideal has none" 0. ideal.Experiment.avg_retx_ratio;
  Alcotest.(check int) "ideal never nacks" 0 ideal.Experiment.nacks_generated;
  Alcotest.(check bool) "ideal faster" true
    (ideal.Experiment.avg_goodput_gbps > sr.Experiment.avg_goodput_gbps +. 5.);
  Alcotest.(check bool) "ideal near line rate" true
    (ideal.Experiment.avg_goodput_gbps > 80.)

let tiny_fabric =
  {
    Leaf_spine.n_leaves = 4;
    n_spines = 4;
    hosts_per_leaf = 2;
    host_bw = Rate.gbps 400.;
    fabric_bw = Rate.gbps 400.;
    link_delay = Sim_time.us 1;
  }

let tiny_eval scheme coll =
  {
    (Experiment.default_eval ~fabric:tiny_fabric ~scheme ~coll ()) with
    Experiment.bytes_per_group = 400_000;
  }

let test_collective_allreduce_runs () =
  let r =
    Experiment.run_collective (tiny_eval (Network.Themis { compensation = true })
       Experiment.Allreduce)
  in
  Alcotest.(check int) "two groups" 2 (List.length r.Experiment.per_group_ms);
  Alcotest.(check bool) "tail >= mean" true
    (r.Experiment.tail_ct_ms >= r.Experiment.mean_ct_ms -. 1e-9);
  Alcotest.(check bool) "packets flowed" true (r.Experiment.data_packets > 0);
  Alcotest.(check bool) "themis stats present" true (r.Experiment.themis <> None);
  Alcotest.(check int) "no nacks delivered" 0 r.Experiment.nacks_delivered

let test_collective_all_types_run () =
  List.iter
    (fun coll ->
      let r = Experiment.run_collective (tiny_eval Network.Ecmp coll) in
      Alcotest.(check bool)
        (Schedule.collective_to_string coll ^ " completes")
        true
        (r.Experiment.tail_ct_ms > 0.))
    [ Experiment.Allreduce; Experiment.Hd_allreduce; Experiment.Alltoall;
      Experiment.Allgather; Experiment.Reduce_scatter ]

let test_fig5_shape_themis_beats_ar () =
  (* The paper's central result at the (900, 4) recommended setting:
     Themis completes faster than adaptive routing, which completes
     faster than nothing-works ECMP... ECMP can luckily win on tiny
     fabrics, so only the Themis < AR ordering is asserted. *)
  let run scheme = (Experiment.run_collective (tiny_eval scheme Experiment.Allreduce)).Experiment.tail_ct_ms in
  let ar = run Network.Adaptive in
  let themis = run (Network.Themis { compensation = true }) in
  Alcotest.(check bool) "themis <= ar" true (themis <= ar +. 0.001)

let test_hd_vs_ring () =
  (* Halving-doubling moves less total data than the ring (2(n-1)/n vs
     ~2 volume factors) and should not be slower under Themis. *)
  let run coll =
    (Experiment.run_collective
       (tiny_eval (Network.Themis { compensation = true }) coll))
      .Experiment.tail_ct_ms
  in
  let ring = run Experiment.Allreduce in
  let hd = run Experiment.Hd_allreduce in
  Alcotest.(check bool) "both finish" true (ring > 0. && hd > 0.)

let () =
  Alcotest.run "experiment"
    [
      ( "motivation (fig 1)",
        [
          Alcotest.test_case "runs" `Slow test_motivation_runs;
          Alcotest.test_case "sr vs ideal" `Slow test_motivation_sr_vs_ideal;
        ] );
      ( "collectives (fig 5)",
        [
          Alcotest.test_case "allreduce runs" `Slow test_collective_allreduce_runs;
          Alcotest.test_case "all collectives" `Slow test_collective_all_types_run;
          Alcotest.test_case "themis beats ar" `Slow test_fig5_shape_themis_beats_ar;
          Alcotest.test_case "hd vs ring" `Slow test_hd_vs_ring;
        ] );
    ]
