(* The benchmark drivers at self-check scale: runs repeat in one process,
   tracing observes without perturbing, and the drivers simulate exactly
   what the library's own harnesses do. *)

open Perfbench

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_fragment what fp frag =
  if not (contains fp frag) then
    Alcotest.failf "%s: %S not in fingerprint %s" what frag fp

let run ?ledger w = Drive.run ?ledger ~size:Drive.Tiny ~seed:0 w

let back_to_back (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let a = run w in
      let b = run w in
      Alcotest.(check string) "second run repeats the first" a.Drive.fingerprint
        b.Drive.fingerprint;
      match Drive.check ~size:Drive.Tiny ~seed:0 w a with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let traced_equals_untraced (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let plain = run w in
      let ledger = Ledger.create () in
      let traced = run ~ledger w in
      Alcotest.(check string) "traced fingerprint" plain.Drive.fingerprint
        traced.Drive.fingerprint;
      let deliveries =
        List.fold_left
          (fun a (l, _) -> if l = Ledger.Connect then a else a + Ledger.calls ledger l)
          0 Ledger.layers
      in
      if deliveries = 0 then Alcotest.fail "no delivery was traced")

(* Drive.run at Tiny scale runs allreduce16 on the 8x8 fabric with 64 kB
   per group. *)
let allreduce_matches_experiment () =
  let r = run Drive.Allreduce16 in
  Drive.fresh_context ();
  let e =
    Experiment.run_collective
      {
        (Experiment.default_eval ~scheme:Drive.themis ~coll:Experiment.Allreduce ())
        with
        Experiment.bytes_per_group = 64_000;
        eval_seed = 0;
      }
  in
  let fp = r.Drive.fingerprint in
  check_fragment "data packets" fp (Printf.sprintf "data=%d " e.Experiment.data_packets);
  check_fragment "themis totals" fp (Drive.themis_line e.Experiment.themis);
  check_fragment "tail CT" fp
    (Printf.sprintf "tail_ns=%d " (int_of_float (Float.round (e.Experiment.tail_ct_ms *. 1e6))))

let rpc_matches_workload_run () =
  let n_flows = 2_000 in
  let r, stream, fct =
    Drive.run_rpc ~fabric:Experiment.scaled_eval_fabric ~n_flows ~seed:0 ()
  in
  let spec =
    {
      Workload_spec.wseed = 0;
      shape =
        Fuzz_spec.Ls
          {
            n_leaves = 8;
            n_spines = 8;
            hosts_per_leaf = 8;
            host_gbps = 400;
            fabric_gbps = 400;
            link_delay_ns = 1_000;
          };
      dist = Flow_size.Fixed Drive.rpc_flow_bytes;
      arrival = Arrival.Poisson;
      load_pct = Drive.rpc_load_pct;
      n_flows;
      colls = [];
      failures = [];
      deadline_ns = Drive.rpc_deadline;
    }
  in
  let w = Workload_run.run ~scheme:"themis" spec in
  Alcotest.(check int) "completions" w.Workload_run.r_completed
    (Flow_stream.stats stream).Flow_stream.completed;
  Alcotest.(check int) "flows" n_flows r.Drive.completed;
  check_fragment "data packets" r.Drive.fingerprint
    (Printf.sprintf "data=%d " w.Workload_run.r_data_packets);
  Alcotest.(check (list (pair string (float 0.)))) "Fct.metrics"
    w.Workload_run.r_fct (Fct.metrics fct)

let () =
  Alcotest.run "perfbench"
    [
      ("back-to-back", List.map back_to_back Drive.workloads);
      ("traced = untraced", List.map traced_equals_untraced Drive.workloads);
      ( "drivers match harnesses",
        [
          Alcotest.test_case "allreduce16 = Experiment.run_collective" `Quick
            allreduce_matches_experiment;
          Alcotest.test_case "rpc-open = Workload_run.run" `Quick
            rpc_matches_workload_run;
        ] );
    ]
