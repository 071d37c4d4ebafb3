(* Units, conversions and rate arithmetic. *)

let check_int = Alcotest.(check int)
let check_float msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_units () =
  check_int "ns" 5 (Sim_time.ns 5);
  check_int "us" 5_000 (Sim_time.us 5);
  check_int "ms" 5_000_000 (Sim_time.ms 5);
  check_int "sec" 5_000_000_000 (Sim_time.sec 5);
  check_int "us_f rounds" 2_500 (Sim_time.us_f 2.5);
  check_int "us_f rounds to nearest" 3 (Sim_time.us_f 0.0025)

let test_conversions () =
  check_float "to_us" 1.5 (Sim_time.to_us 1_500);
  check_float "to_ms" 1.5 (Sim_time.to_ms 1_500_000);
  check_float "to_sec" 1.5 (Sim_time.to_sec 1_500_000_000)

let test_arith () =
  check_int "add" 30 (Sim_time.add 10 20);
  check_int "diff" 10 (Sim_time.diff 30 20);
  check_int "max" 30 (Sim_time.max 10 30);
  check_int "min" 10 (Sim_time.min 10 30);
  Alcotest.(check bool) "compare" true (Sim_time.compare 1 2 < 0)

let test_pp () =
  let s t = Format.asprintf "%a" Sim_time.pp t in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.000ms" (s 2_000_000);
  Alcotest.(check string) "s" "3.0000s" (s 3_000_000_000)

let test_rate_conversions () =
  check_float "gbps roundtrip" 100. (Rate.to_gbps (Rate.gbps 100.));
  check_float "bps" 1e9 (Rate.to_bps (Rate.bps 1e9));
  Alcotest.(check bool) "zero" true (Rate.is_zero Rate.zero);
  Alcotest.(check bool) "nonzero" false (Rate.is_zero (Rate.gbps 1.))

let test_tx_time () =
  (* 1500 B at 100 Gbps = 120 ns. *)
  check_int "1500B@100G" 120 (Rate.tx_time (Rate.gbps 100.) ~bytes_:1500);
  (* 1500 B at 400 Gbps = 30 ns. *)
  check_int "1500B@400G" 30 (Rate.tx_time (Rate.gbps 400.) ~bytes_:1500);
  check_int "0 bytes" 0 (Rate.tx_time (Rate.gbps 100.) ~bytes_:0);
  (* Tiny packets never serialize in zero time. *)
  Alcotest.(check bool)
    "min 1ns" true
    (Rate.tx_time (Rate.gbps 400.) ~bytes_:1 >= 1)

let test_bytes_in () =
  check_int "100G for 120ns" 1500 (Rate.bytes_in (Rate.gbps 100.) 120);
  check_int "zero duration" 0 (Rate.bytes_in (Rate.gbps 100.) 0)

let test_scale_clamp () =
  check_float "scale" 50. (Rate.to_gbps (Rate.scale (Rate.gbps 100.) 0.5));
  check_float "scale floors at min_rate"
    (Rate.to_gbps Rate.min_rate)
    (Rate.to_gbps (Rate.scale (Rate.gbps 100.) 1e-9));
  check_float "clamp max" 100.
    (Rate.to_gbps (Rate.clamp (Rate.gbps 200.) ~max:(Rate.gbps 100.)));
  check_float "avg" 75. (Rate.to_gbps (Rate.avg (Rate.gbps 50.) (Rate.gbps 100.)));
  check_float "add" 150. (Rate.to_gbps (Rate.add (Rate.gbps 50.) (Rate.gbps 100.)))

let prop_tx_time_monotone =
  QCheck.Test.make ~name:"tx_time monotone in size" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (a, b) ->
      let r = Rate.gbps 100. in
      let small = min a b and large = max a b in
      Rate.tx_time r ~bytes_:small <= Rate.tx_time r ~bytes_:large)

let prop_tx_time_rate_antitone =
  QCheck.Test.make ~name:"tx_time decreases with rate" ~count:200
    QCheck.(pair (float_range 1. 100.) (float_range 1. 100.))
    (fun (a, b) ->
      let slow = Rate.gbps (min a b) and fast = Rate.gbps (max a b) in
      Rate.tx_time fast ~bytes_:10_000 <= Rate.tx_time slow ~bytes_:10_000)

(* [tx_time] rounds by truncate-and-compare; the reference is the
   [Float.round] form it replaced, which must agree bit for bit. *)
let tx_time_round r ~bytes_ =
  if bytes_ <= 0 then 0
  else
    let ns = float_of_int (bytes_ * 8) *. 1e9 /. Rate.to_bps r in
    Int.max 1 (int_of_float (Float.round ns))

let test_tx_time_matches_round () =
  List.iter
    (fun g ->
      let r = Rate.gbps g in
      for b = 1 to 9216 do
        if Rate.tx_time r ~bytes_:b <> tx_time_round r ~bytes_:b then
          Alcotest.failf "%d B at %g Gb/s: %d, Float.round gives %d" b g
            (Rate.tx_time r ~bytes_:b) (tx_time_round r ~bytes_:b)
      done)
    [ 25.; 100.; 400.; 800. ]

let prop_tx_time_matches_round =
  QCheck.Test.make ~name:"tx_time equals the Float.round form" ~count:2000
    QCheck.(pair (float_range 1e8 2e12) (int_range 1 1_000_000))
    (fun (bps, b) ->
      let r = Rate.bps bps in
      Rate.tx_time r ~bytes_:b = tx_time_round r ~bytes_:b)

let () =
  Alcotest.run "sim_time"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "pretty-printing" `Quick test_pp;
        ] );
      ( "rate",
        [
          Alcotest.test_case "conversions" `Quick test_rate_conversions;
          Alcotest.test_case "tx_time" `Quick test_tx_time;
          Alcotest.test_case "bytes_in" `Quick test_bytes_in;
          Alcotest.test_case "scale/clamp" `Quick test_scale_clamp;
          QCheck_alcotest.to_alcotest prop_tx_time_monotone;
          QCheck_alcotest.to_alcotest prop_tx_time_rate_antitone;
          Alcotest.test_case "tx_time equals Float.round" `Quick
            test_tx_time_matches_round;
          QCheck_alcotest.to_alcotest prop_tx_time_matches_round;
        ] );
    ]
