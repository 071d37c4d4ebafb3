(* Workload subsystem tests: wl1 spec exact round-trips, preset
   validity, flow-size sampler support/mean checks, open-loop arrival
   math, FCT size-class bucketing, failure-script compilation, run-level
   determinism (same (spec, scheme) twice => identical result record)
   and serial-vs-forked byte identity of a workload campaign. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generators. *)

let gen_dist =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Flow_size.Fixed n) (int_range 1 10_000_000);
        map
          (fun (lo, d) -> Flow_size.Uniform { lo; hi = lo + d })
          (pair (int_range 1 1_000_000) (int_range 0 1_000_000));
        return Flow_size.Websearch;
        return Flow_size.Hadoop;
        return Flow_size.Storage;
      ])

let gen_arrival =
  QCheck.Gen.(
    oneof
      [
        return Arrival.Poisson;
        map
          (fun (on_us, off_us) -> Arrival.Onoff { on_us; off_us })
          (pair (int_range 1 1000) (int_range 1 1000));
      ])

(* A small valid leaf-spine shape: >= 2 spines so spine deaths validate. *)
let gen_shape =
  QCheck.Gen.(
    map
      (fun (((n_leaves, n_spines), hosts_per_leaf), gbps) ->
        Fuzz_spec.Ls
          {
            n_leaves;
            n_spines;
            hosts_per_leaf;
            host_gbps = gbps;
            fabric_gbps = gbps;
            link_delay_ns = 500;
          })
      (pair
         (pair (pair (int_range 2 4) (int_range 2 4)) (int_range 1 4))
         (oneofl [ 25; 100 ])))

let gen_coll ~n_hosts =
  QCheck.Gen.(
    map
      (fun (((coll, ranks), coll_bytes), (iters, coll_start_ns)) ->
        (* hd-allreduce needs a power-of-two rank count. *)
        let ranks = if coll = "hd-allreduce" then 2 else ranks in
        { Workload_spec.coll; ranks; coll_bytes; iters; coll_start_ns })
      (pair
         (pair
            (pair (oneofl Workload_spec.colls_known) (int_range 2 n_hosts))
            (int_range 1 1_000_000))
         (pair (int_range 1 3) (int_range 0 1_000_000))))

let gen_failure ~shape =
  let n_hosts = Fuzz_spec.n_hosts_of_shape shape in
  let n_spines =
    match shape with
    | Fuzz_spec.Ls { n_spines; _ } -> n_spines
    | Fuzz_spec.Ft _ -> assert false
  in
  let n_fabric_links =
    match shape with
    | Fuzz_spec.Ls { n_leaves; n_spines; _ } -> n_leaves * n_spines
    | Fuzz_spec.Ft _ -> assert false
  in
  QCheck.Gen.(
    oneof
      [
        map
          (fun (((link, first), (down, extra)), count) ->
            Workload_spec.Flap
              {
                flap_link = n_hosts + link;
                first_down_ns = first;
                down_for_ns = down;
                period_ns = down + extra;
                count;
              })
          (pair
             (pair
                (pair (int_range 0 (n_fabric_links - 1)) (int_range 0 5_000_000))
                (pair (int_range 1 1_000_000) (int_range 1 1_000_000)))
             (int_range 1 3));
        map
          (fun (spine, at_ns) -> Workload_spec.Spine_down { spine; at_ns })
          (pair (int_range 0 (n_spines - 1)) (int_range 0 10_000_000));
        map
          (fun ((start, dur), ppm) ->
            Workload_spec.Drop_storm
              { storm_start_ns = start; storm_dur_ns = dur; storm_ppm = ppm })
          (pair
             (pair (int_range 0 10_000_000) (int_range 1 5_000_000))
             (int_range 1 999_999));
      ])

let gen_spec =
  QCheck.Gen.(
    let* shape = gen_shape in
    let n_hosts = Fuzz_spec.n_hosts_of_shape shape in
    let* wseed = int_range 0 9999 in
    let* dist = gen_dist in
    let* arrival = gen_arrival in
    let* load_pct = int_range 1 200 in
    let* n_flows = int_range 1 10_000 in
    let* colls = list_size (int_range 0 2) (gen_coll ~n_hosts) in
    let* failures = list_size (int_range 0 3) (gen_failure ~shape) in
    let* deadline_ns = int_range 1_000_000 1_000_000_000 in
    return
      {
        Workload_spec.wseed;
        shape;
        dist;
        arrival;
        load_pct;
        n_flows;
        colls;
        failures;
        deadline_ns;
      })

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"wl1 to_string/of_string exact inverse" ~count:300
    (QCheck.make gen_spec ~print:Workload_spec.to_string)
    (fun s ->
      match Workload_spec.validate s with
      | Error _ -> QCheck.assume_fail ()
      | Ok () -> (
          match Workload_spec.of_string (Workload_spec.to_string s) with
          | Error e -> QCheck.Test.fail_reportf "of_string failed: %s" e
          | Ok s' ->
              Workload_spec.equal s s'
              && Workload_spec.to_string s' = Workload_spec.to_string s))

let test_presets () =
  List.iter
    (fun name ->
      match Workload_spec.preset name with
      | None -> Alcotest.failf "preset %s missing" name
      | Some s -> (
          match Workload_spec.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "preset %s invalid: %s" name e))
    Workload_spec.preset_names;
  (* "preset:<name>" parses to the same spec. *)
  let mix = Option.get (Workload_spec.preset "mix") in
  (match Workload_spec.of_string "preset:mix" with
  | Ok s -> check_bool "preset:mix resolves" true (Workload_spec.equal s mix)
  | Error e -> Alcotest.failf "preset:mix failed: %s" e);
  match Workload_spec.of_string "preset:warp" with
  | Ok _ -> Alcotest.fail "accepted unknown preset"
  | Error _ -> ()

let test_parse_errors () =
  let bad l =
    match Workload_spec.of_string l with
    | Ok _ -> Alcotest.failf "accepted bad spec %s" l
    | Error _ -> ()
  in
  bad "wl2;seed=1";
  (* Fat-tree shapes are rejected by validation. *)
  bad "wl1;seed=1;shape=ft:4:25:500;dist=fixed:1000;arr=poisson;load=50;flows=10;colls=;faults=;dl=1000000";
  (* Load factor out of range. *)
  bad "wl1;seed=1;shape=ls:2:2:4:25:25:500;dist=fixed:1000;arr=poisson;load=300;flows=10;colls=;faults=;dl=1000000";
  (* No traffic at all. *)
  bad "wl1;seed=1;shape=ls:2:2:4:25:25:500;dist=fixed:1000;arr=poisson;load=50;flows=0;colls=;faults=;dl=1000000";
  (* Flap on a host link. *)
  bad "wl1;seed=1;shape=ls:2:2:4:25:25:500;dist=fixed:1000;arr=poisson;load=50;flows=10;colls=;faults=flap:0:1000:1000:5000:1;dl=1000000";
  (* Malformed fields: unknown key, repeated key, no '='. *)
  let mix = Workload_spec.to_string (Option.get (Workload_spec.preset "mix")) in
  List.iter
    (fun (l, want) ->
      match Workload_spec.of_string l with
      | Ok _ -> Alcotest.failf "accepted bad spec %s" l
      | Error e -> Alcotest.(check string) l want e)
    [
      (mix ^ ";lod=40", "unknown field \"lod\"");
      (mix ^ ";load=40", "duplicate field \"load\"");
      (mix ^ ";flows", "field \"flows\" has no '='");
    ]

(* ------------------------------------------------------------------ *)
(* Flow sizes. *)

let test_sample_support () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun dist ->
      let hi = Flow_size.max_bytes dist in
      for _ = 1 to 2_000 do
        let b = Flow_size.sample dist rng in
        if b < 1 || b > hi then
          Alcotest.failf "%s sampled %d outside [1, %d]"
            (Flow_size.to_string dist) b hi
      done)
    [
      Flow_size.Fixed 777;
      Flow_size.Uniform { lo = 10; hi = 1000 };
      Flow_size.Websearch;
      Flow_size.Hadoop;
      Flow_size.Storage;
    ]

(* The sampled mean must converge to the analytic mean the load-factor
   math divides by — a mismatch silently skews every offered load. *)
let test_sample_mean () =
  List.iter
    (fun (dist, tol_pct) ->
      let rng = Rng.create ~seed:11 in
      let n = 200_000 in
      let sum = ref 0. in
      for _ = 1 to n do
        sum := !sum +. float_of_int (Flow_size.sample dist rng)
      done;
      let emp = !sum /. float_of_int n in
      let ana = Flow_size.mean_bytes dist in
      if Float.abs (emp -. ana) > ana *. tol_pct /. 100. then
        Alcotest.failf "%s: empirical mean %.0f vs analytic %.0f"
          (Flow_size.to_string dist) emp ana)
    [
      (Flow_size.Fixed 12_345, 0.001);
      (Flow_size.Uniform { lo = 100; hi = 10_000 }, 2.);
      (Flow_size.Websearch, 5.);
      (Flow_size.Hadoop, 5.);
      (Flow_size.Storage, 5.);
    ]

let test_dist_roundtrip () =
  List.iter
    (fun s ->
      match Flow_size.of_string s with
      | Error e -> Alcotest.failf "of_string %s: %s" s e
      | Ok d -> check_str "dist roundtrip" s (Flow_size.to_string d))
    [ "fixed:4096"; "uniform:10:1000"; "websearch"; "hadoop"; "storage" ];
  match Flow_size.of_string "zipf:2" with
  | Ok _ -> Alcotest.fail "accepted unknown dist"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Arrivals. *)

let test_rate_math () =
  (* 50% of 50 Gbps over 1 MB mean flows = 3125 flows/s. *)
  Alcotest.(check (float 1e-9))
    "flows_per_sec" 3125.
    (Arrival.flows_per_sec ~load_pct:50 ~capacity_bps:50e9
       ~mean_flow_bytes:1e6);
  let t =
    Arrival.create ~process:Arrival.Poisson ~load_pct:50 ~capacity_bps:50e9
      ~mean_flow_bytes:1e6
  in
  Alcotest.(check (float 1e-3)) "mean gap" (1e9 /. 3125.) (Arrival.mean_gap_ns t)

(* Long-run empirical rate must match the target for both processes:
   ON/OFF compresses arrivals into bursts but may not change the load. *)
let test_long_run_rate () =
  List.iter
    (fun process ->
      let t =
        Arrival.create ~process ~load_pct:80 ~capacity_bps:50e9
          ~mean_flow_bytes:65536.
      in
      let rng = Rng.create ~seed:5 in
      let n = 100_000 in
      let sum = ref 0. in
      for _ = 1 to n do
        let g = Arrival.next_gap_ns t rng in
        if g < 1 then Alcotest.fail "gap < 1 ns";
        sum := !sum +. float_of_int g
      done;
      let emp = !sum /. float_of_int n in
      let want = Arrival.mean_gap_ns t in
      if Float.abs (emp -. want) > want *. 0.05 then
        Alcotest.failf "%s: empirical mean gap %.0f ns vs target %.0f ns"
          (Arrival.process_to_string process)
          emp want)
    [ Arrival.Poisson; Arrival.Onoff { on_us = 50; off_us = 150 } ]

(* ------------------------------------------------------------------ *)
(* FCT size classes. *)

let test_class_boundaries () =
  let cls b = Fct.class_name (Fct.class_of_bytes b) in
  check_str "1 B" "small" (cls 1);
  check_str "10 kB boundary" "small" (cls 10_000);
  check_str "10 kB + 1" "medium" (cls 10_001);
  check_str "100 kB boundary" "medium" (cls 100_000);
  check_str "100 kB + 1" "large" (cls 100_001);
  check_str "1 MB boundary" "large" (cls 1_000_000);
  check_str "1 MB + 1" "huge" (cls 1_000_001);
  check_str "30 MB" "huge" (cls 30_000_000)

let test_fct_metrics () =
  let t = Fct.create () in
  Fct.record t ~bytes:1_000 ~fct_us:10.;
  Fct.record t ~bytes:50_000 ~fct_us:100.;
  Fct.record t ~bytes:5_000_000 ~fct_us:5000.;
  check_int "count" 3 (Fct.count t);
  check_int "small" 1 (Fct.class_count t (Fct.class_of_bytes 1_000));
  check_int "medium" 1 (Fct.class_count t (Fct.class_of_bytes 50_000));
  check_int "huge" 1 (Fct.class_count t (Fct.class_of_bytes 5_000_000));
  let m = Fct.metrics t in
  let get k =
    match List.assoc_opt k m with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" k
  in
  check_bool "flows" true (get "flows" = 3.);
  check_bool "small flows" true (get "small_flows" = 1.);
  check_bool "large flows absent but finite" true (get "large_fct_p99_us" = 0.);
  List.iter
    (fun (k, v) ->
      if Float.is_nan v then Alcotest.failf "metric %s is NaN" k)
    m

(* ------------------------------------------------------------------ *)
(* Failure-script compilation. *)

let shape22 = Workload_spec.small_fabric
let n_hosts22 = Fuzz_spec.n_hosts_of_shape shape22

let test_compile_flap () =
  let c =
    Failure_script.compile ~shape:shape22
      [
        Workload_spec.Flap
          {
            flap_link = n_hosts22;
            first_down_ns = 1_000;
            down_for_ns = 500;
            period_ns = 10_000;
            count = 3;
          };
      ]
  in
  check_int "3 flaps -> 3 faults" 3 (List.length c.Failure_script.link_faults);
  List.iteri
    (fun k (f : Fuzz_spec.link_fault) ->
      check_int "link" n_hosts22 f.Fuzz_spec.fault_link;
      check_int "down" (1_000 + (k * 10_000)) f.Fuzz_spec.down_ns;
      check_int "up" (1_500 + (k * 10_000)) f.Fuzz_spec.up_ns)
    c.Failure_script.link_faults;
  check_int "no storms" 0 (List.length c.Failure_script.storms)

let test_compile_spine_death () =
  let c =
    Failure_script.compile ~shape:shape22
      [ Workload_spec.Spine_down { spine = 1; at_ns = 7_000 } ]
  in
  (* One permanent fault per leaf uplink into the dead spine. *)
  check_int "2 leaves -> 2 faults" 2 (List.length c.Failure_script.link_faults);
  List.iteri
    (fun leaf (f : Fuzz_spec.link_fault) ->
      check_int "uplink id"
        (Fuzz_spec.fabric_link_id shape22 ~leaf ~spine:1)
        f.Fuzz_spec.fault_link;
      check_int "down at" 7_000 f.Fuzz_spec.down_ns;
      check_bool "permanent" true (f.Fuzz_spec.up_ns <= f.Fuzz_spec.down_ns))
    c.Failure_script.link_faults

let test_compile_storm () =
  let c =
    Failure_script.compile ~shape:shape22
      [
        Workload_spec.Drop_storm
          { storm_start_ns = 5_000; storm_dur_ns = 2_000; storm_ppm = 50_000 };
      ]
  in
  check_int "one storm" 1 (List.length c.Failure_script.storms);
  let s = List.hd c.Failure_script.storms in
  check_int "start" 5_000 s.Failure_script.s_start_ns;
  check_int "stop" 7_000 s.Failure_script.s_stop_ns;
  check_int "ppm" 50_000 s.Failure_script.s_ppm

(* ------------------------------------------------------------------ *)
(* Run-level determinism: the same (spec, scheme) twice must produce the
   same result record — the in-process half of the serial==forked
   campaign guarantee. *)

let small_mix =
  {
    (Option.get (Workload_spec.preset "mix")) with
    Workload_spec.n_flows = 40;
    colls = [];
  }

let test_run_deterministic () =
  let r1 = Workload_run.run ~scheme:"themis" small_mix in
  let r2 = Workload_run.run ~scheme:"themis" small_mix in
  check_bool "identical result records" true (r1 = r2);
  check_int "all flows completed" r1.Workload_run.r_offered
    r1.Workload_run.r_completed;
  check_bool "hwm is O(active)" true
    (r1.Workload_run.r_live_hwm < small_mix.Workload_spec.n_flows)

(* Different seeds must actually change the traffic (no accidental seed
   pinning anywhere in the substream plumbing). *)
let test_run_seed_sensitivity () =
  let r1 = Workload_run.run ~scheme:"themis" small_mix in
  let r2 =
    Workload_run.run ~scheme:"themis"
      { small_mix with Workload_spec.wseed = 22 }
  in
  check_bool "different seeds, different traffic" true
    (r1.Workload_run.r_bytes_offered <> r2.Workload_run.r_bytes_offered)

(* Serial vs forked byte identity for workload campaign jobs. *)
let test_campaign_byte_identity () =
  let fresh tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "themis_workload_test_%d_%s" (Unix.getpid ()) tag)
  in
  let jobs =
    List.map
      (fun wscheme ->
        Campaign_spec.Workload_job
          { wname = "mix"; wscheme; load = 30; wseed = 21 })
      [ "ecmp"; "themis" ]
  in
  let serial = Campaign_store.open_ ~dir:(fresh "serial") in
  let forked = Campaign_store.open_ ~dir:(fresh "forked") in
  let s_sum = Campaign_pool.run ~workers:1 ~store:serial jobs in
  let f_sum = Campaign_pool.run ~workers:2 ~store:forked jobs in
  check_bool "serial clean" true (Campaign_pool.ok s_sum);
  check_bool "forked clean" true (Campaign_pool.ok f_sum);
  List.iter
    (fun j ->
      let h = Campaign_spec.job_hash j in
      check_str
        (Printf.sprintf "bytes of %s" (Campaign_spec.job_to_string j))
        (Option.get (Campaign_store.raw_bytes serial h))
        (Option.get (Campaign_store.raw_bytes forked h)))
    jobs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          Alcotest.test_case "presets valid" `Quick test_presets;
          Alcotest.test_case "parse/validate errors" `Quick test_parse_errors;
        ] );
      ( "flow_size",
        [
          Alcotest.test_case "sample support" `Quick test_sample_support;
          Alcotest.test_case "empirical vs analytic mean" `Quick
            test_sample_mean;
          Alcotest.test_case "dist roundtrip" `Quick test_dist_roundtrip;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "load-factor math" `Quick test_rate_math;
          Alcotest.test_case "long-run rate (poisson + onoff)" `Quick
            test_long_run_rate;
        ] );
      ( "fct",
        [
          Alcotest.test_case "size-class boundaries" `Quick
            test_class_boundaries;
          Alcotest.test_case "metrics finite + bucketed" `Quick
            test_fct_metrics;
        ] );
      ( "failure_script",
        [
          Alcotest.test_case "flap expansion" `Quick test_compile_flap;
          Alcotest.test_case "spine death expansion" `Quick
            test_compile_spine_death;
          Alcotest.test_case "storm window" `Quick test_compile_storm;
        ] );
      ( "run",
        [
          Alcotest.test_case "same spec twice: identical" `Quick
            test_run_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_run_seed_sensitivity;
          Alcotest.test_case "campaign serial==forked bytes" `Quick
            test_campaign_byte_identity;
        ] );
    ]
