(* Metric collectors. *)

let test_time_series_bucketing () =
  let ts = Stats.Time_series.create ~bucket:100 in
  Stats.Time_series.add ts ~time:10 1.;
  Stats.Time_series.add ts ~time:90 2.;
  Stats.Time_series.add ts ~time:150 4.;
  Stats.Time_series.add ts ~time:250 8.;
  Alcotest.(check (list (pair int (float 1e-9))))
    "sums per bucket"
    [ (0, 3.); (100, 4.); (200, 8.) ]
    (Stats.Time_series.sums ts)

let test_time_series_means () =
  let ts = Stats.Time_series.create ~bucket:10 in
  Stats.Time_series.add ts ~time:0 2.;
  Stats.Time_series.add ts ~time:5 4.;
  Alcotest.(check (list (pair int (float 1e-9))))
    "mean" [ (0, 3.) ]
    (Stats.Time_series.means ts)

let test_time_series_rate () =
  (* 1000 units in a 1 us bucket = 1e9 units per second. *)
  let ts = Stats.Time_series.create ~bucket:(Sim_time.us 1) in
  Stats.Time_series.add ts ~time:100 1000.;
  match Stats.Time_series.rate_per_sec ts with
  | [ (0, rate) ] -> Alcotest.(check (float 1.)) "rate" 1e9 rate
  | _ -> Alcotest.fail "expected one bucket"

let test_time_series_invalid () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Time_series.create: bucket width") (fun () ->
      ignore (Stats.Time_series.create ~bucket:0))

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.8 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "sum" 14. (Stats.Summary.sum s)

let test_summary_percentiles () =
  let s = Stats.Summary.create () in
  for i = 1 to 100 do
    Stats.Summary.add s (float_of_int i)
  done;
  Alcotest.(check (float 1.)) "p50" 50. (Stats.Summary.percentile s 0.5);
  Alcotest.(check (float 1.)) "p99" 99. (Stats.Summary.percentile s 0.99);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.Summary.percentile s 1.)

let test_percentile_empty () =
  let s = Stats.Summary.create () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%g of empty is nan" (p *. 100.))
        true
        (Float.is_nan (Stats.Summary.percentile s p)))
    [ 0.; 0.5; 0.99; 0.999; 1. ]

let test_percentile_single () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 42.;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g of single sample" (p *. 100.))
        42.
        (Stats.Summary.percentile s p))
    [ 0.; 0.5; 0.99; 0.999; 1. ]

let test_percentile_exact_boundaries () =
  (* 1001 samples 1..1001: p*(n-1) is an exact integer rank for p50, p99
     and p999, pinning the nearest-rank convention used by FCT reports. *)
  let s = Stats.Summary.create () in
  for i = 1 to 1001 do
    Stats.Summary.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 501. (Stats.Summary.percentile s 0.5);
  Alcotest.(check (float 1e-9)) "p99" 991. (Stats.Summary.percentile s 0.99);
  Alcotest.(check (float 1e-9)) "p999" 1000. (Stats.Summary.percentile s 0.999);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.Summary.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 1001. (Stats.Summary.percentile s 1.)

let test_percentile_unsorted_input () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 9.; 1.; 5.; 3.; 7. ];
  Alcotest.(check (float 1e-9)) "p50 sorts" 5. (Stats.Summary.percentile s 0.5)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Stats.Summary.mean s);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Stats.Summary.min s))

let prop_summary_mean_in_range =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "time_series",
        [
          Alcotest.test_case "bucketing" `Quick test_time_series_bucketing;
          Alcotest.test_case "means" `Quick test_time_series_means;
          Alcotest.test_case "rate" `Quick test_time_series_rate;
          Alcotest.test_case "invalid" `Quick test_time_series_invalid;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          Alcotest.test_case "percentile single" `Quick test_percentile_single;
          Alcotest.test_case "percentile boundaries" `Quick
            test_percentile_exact_boundaries;
          Alcotest.test_case "percentile unsorted" `Quick
            test_percentile_unsorted_input;
          QCheck_alcotest.to_alcotest prop_summary_mean_in_range;
        ] );
    ]
