(* Regression for determinism leaks: two runs of the same (spec,
   scheme) pair must produce byte-identical JSONL event dumps and equal
   telemetry summaries.  The seeds below are chosen to cover the
   machinery most likely to leak nondeterminism — fault injection RNG,
   link-fault scheduling, last-hop jitter, and the fat-tree fabric. *)

let has_faults spec = spec.Fuzz_spec.link_faults <> []

let has_injection spec =
  spec.Fuzz_spec.drop_ppm > 0
  || spec.Fuzz_spec.dup_ppm > 0
  || spec.Fuzz_spec.delay_ppm > 0

let is_ft spec =
  match spec.Fuzz_spec.shape with Fuzz_spec.Ft _ -> true | _ -> false

(* Scan a seed range for the first spec matching [pred], so the test
   keeps covering its intended machinery even if the generator's
   distribution shifts. *)
let find_spec ~name pred =
  let rec go seed =
    if seed > 5_000 then Alcotest.failf "no %s spec in seeds 0..5000" name
    else
      let spec = Fuzz_spec.generate ~seed () in
      if pred spec then spec else go (seed + 1)
  in
  go 0

let check_deterministic spec ~scheme =
  let a = Fuzz_run.run_scheme spec ~scheme in
  let b = Fuzz_run.run_scheme spec ~scheme in
  Alcotest.(check bool)
    (Printf.sprintf "summaries equal (%s)" scheme)
    true
    (a.Fuzz_run.o_summary = b.Fuzz_run.o_summary);
  Alcotest.(check string)
    (Printf.sprintf "event dumps byte-identical (%s)" scheme)
    a.Fuzz_run.o_events_jsonl b.Fuzz_run.o_events_jsonl;
  (* A dump with no events would make the comparison vacuous. *)
  Alcotest.(check bool)
    (Printf.sprintf "event dump non-empty (%s)" scheme)
    true
    (String.length a.Fuzz_run.o_events_jsonl > 0)

let test_with pred ~name () =
  let spec = find_spec ~name pred in
  List.iter
    (fun scheme -> check_deterministic spec ~scheme)
    spec.Fuzz_spec.schemes

(* The harness's own double-run check agrees. *)
let test_harness_det_check () =
  let spec = Fuzz_spec.generate ~seed:3 () in
  match
    Fuzz_harness.determinism_check ~log:ignore ~seed:3 spec
      ~scheme:(List.hd spec.Fuzz_spec.schemes)
  with
  | None -> ()
  | Some f ->
      Alcotest.failf "determinism_check flagged seed 3: %s"
        (match f.Fuzz_harness.f_violations with
        | v :: _ -> v.Fuzz_oracle.detail
        | [] -> "?")

(* On a mismatch the harness logs both summaries, so the differing
   counter is visible in the failure report. *)
let test_divergence_logs_both_summaries () =
  let spec = Fuzz_spec.generate ~seed:3 () in
  let summary retx =
    {
      Experiment.tele_data_packets = 100;
      tele_retx_packets = retx;
      tele_nacks_generated = 2;
      tele_nacks_valid = 1;
      tele_nacks_blocked = 1;
      tele_nacks_underflow = 0;
      tele_comp_sent = 0;
      tele_comp_cancelled = 0;
      tele_flows_completed = 2;
      tele_fct_p50_us = 10.;
      tele_fct_p99_us = 20.;
      tele_ecn_marks = 0;
      tele_buffer_drops = 0;
      tele_events = 50;
      tele_events_dropped = 0;
    }
  in
  let outcome retx =
    {
      Fuzz_run.o_scheme = "themis";
      o_violations = [];
      o_summary = Some (summary retx);
      o_events_jsonl = "{}\n";
      o_completed_us = 30.;
      o_data_packets = 100;
      o_retx_packets = retx;
      o_drops = 0;
      o_ooo = 0;
      o_tail_fct_us = 20.;
      o_themis = None;
    }
  in
  let lines = ref [] in
  let log l = lines := l :: !lines in
  let compare a b =
    Fuzz_harness.divergence ~log ~seed:3 spec ~scheme:"themis" (outcome a)
      (outcome b)
  in
  Alcotest.(check bool) "equal runs pass" true (compare 4 4 = None);
  Alcotest.(check int) "equal runs log nothing" 0 (List.length !lines);
  (match compare 4 5 with
  | Some f ->
      Alcotest.(check (list string)) "determinism violation" [ "determinism" ]
        (List.map (fun v -> v.Fuzz_oracle.oracle) f.Fuzz_harness.f_violations)
  | None -> Alcotest.fail "one differing counter passed");
  let logged = List.rev !lines in
  List.iter
    (fun want ->
      Alcotest.(check bool) want true (List.mem want logged))
    [
      "  run 1 summary:"; "    data 100 retx 4"; "  run 2 summary:";
      "    data 100 retx 5";
    ]

(* Flow-id interning is global run state: the fabric build resets it at
   the run boundary so id assignment is a pure function of the spec.  A
   foreign flow interned between two runs must leave no trace — same
   dense ids, same snapshot, same output bytes. *)
let test_intern_reset_at_run_boundary () =
  let spec = Fuzz_spec.generate ~seed:3 () in
  let scheme = List.hd spec.Fuzz_spec.schemes in
  let a = Fuzz_run.run_scheme spec ~scheme in
  let snap_a = Flow_id.intern_snapshot () in
  Alcotest.(check bool) "run interned some flows" true (snap_a <> []);
  (* Pollute the interner; a missing reset would shift or append ids. *)
  ignore (Flow_id.intern (Flow_id.make ~src:9999 ~dst:9998 ~qpn:77));
  let b = Fuzz_run.run_scheme spec ~scheme in
  let snap_b = Flow_id.intern_snapshot () in
  Alcotest.(check bool) "id assignment identical across runs" true
    (snap_a = snap_b);
  Alcotest.(check string) "output bytes identical" a.Fuzz_run.o_events_jsonl
    b.Fuzz_run.o_events_jsonl;
  (* Ids are dense from zero. *)
  List.iteri
    (fun i (id, _) -> Alcotest.(check int) "dense id" i id)
    snap_b

(* Byte-level pin on fat-tree runs under every scheme spelling the fuzz
   runner accepts, rival sprayers included: data/retx/drops, completion
   and tail FCT, the Themis-D totals and a digest of the event dump.  The
   corpus spec is "fat tree, undersized ring, drops and dups". *)
let ft_pin_spec =
  "fz1;seed=12;shape=ft:4:100:1109;tr=sr;qf=25;ppcap=9216;jit=0;\
   drop=2007;corr=0;dup=2260;dly=7496:12111;fmode=ecmp;dl=2000000000;\
   schemes=ecmp+spray+ar+themis;flows=3>10:85542@18338,10>1:85542@33513,\
   1>13:85542@16583,13>2:85542@95551,2>7:85542@4924,7>12:85542@63058,\
   12>15:85542@22721,15>3:85542@46142;faults="

let ft_pinned =
  [
    ( "ecmp",
      "data=478 retx=14 drops=4 \
       completed_us=1074.538 tail_fct_us=1054.6899999999998 \
       themis=off events=ee6e38cec111718dbe0278772f270354" );
    ( "spray",
      "data=481 retx=17 drops=5 \
       completed_us=4104.9939999999997 tail_fct_us=4071.4809999999998 \
       themis=off events=2ccdcba302e74a69dc91240c2dc59e3e" );
    ( "ar",
      "data=482 retx=18 drops=6 \
       completed_us=2072.5479999999998 tail_fct_us=2054.2099999999996 \
       themis=off events=47781c8618011822854c9cdf7c25cb34" );
    ( "psn-spray",
      "data=479 retx=15 drops=5 \
       completed_us=1091.0830000000001 tail_fct_us=1057.5700000000002 \
       themis=off events=ea05779b4ec72f11c47dcc011374341d" );
    ( "themis",
      "data=476 retx=12 drops=4 \
       completed_us=2092.9059999999999 tail_fct_us=2059.393 \
       seen=14 blocked=13 valid=1 underflow=0 \
       comp=10 cancel=3 overwr=422 events=c6de4a192341bec85eb565f1efdd112c" );
    ( "themis-nocomp",
      "data=474 retx=10 drops=5 \
       completed_us=4091.2399999999998 tail_fct_us=4057.7269999999999 \
       seen=14 blocked=12 valid=2 underflow=0 \
       comp=0 cancel=0 overwr=419 events=4b40a4c5ca75a3fb14df2c10a96a5e07" );
    ( "reps",
      "data=489 retx=25 drops=6 \
       completed_us=1133.8530000000001 tail_fct_us=1046.4379999999999 \
       themis=off events=da336d77d591be5f67ab1159bb74972b" );
    ( "prime",
      "data=477 retx=13 drops=6 \
       completed_us=1076.527 tail_fct_us=1047.1390000000001 \
       themis=off events=0cee037681498259a49805fee785858e" );
    ( "sprinklers",
      "data=480 retx=16 drops=6 \
       completed_us=1089.423 tail_fct_us=1055.9100000000001 \
       themis=off events=8116c9d08bd99c000f57c1be0560e890" );
    ( "spritz",
      "data=478 retx=14 drops=5 \
       completed_us=1091.6379999999999 tail_fct_us=1058.125 \
       themis=off events=1f0bdd9b031c1945eed211ac9c52e165" );
  ]

let fingerprint (o : Fuzz_run.outcome) =
  let themis =
    match o.Fuzz_run.o_themis with
    | None -> "themis=off"
    | Some t ->
        Printf.sprintf "seen=%d blocked=%d valid=%d underflow=%d comp=%d \
                        cancel=%d overwr=%d"
          t.Network.nacks_seen t.nacks_blocked t.nacks_forwarded_valid
          t.nacks_forwarded_underflow t.compensation_sent
          t.compensation_cancelled t.queue_overwrites
  in
  Printf.sprintf "data=%d retx=%d drops=%d completed_us=%.17g \
                  tail_fct_us=%.17g %s events=%s"
    o.Fuzz_run.o_data_packets o.o_retx_packets o.o_drops o.o_completed_us
    o.o_tail_fct_us themis
    (Digest.to_hex (Digest.string o.o_events_jsonl))

let test_fat_tree_pinned () =
  let spec =
    match Fuzz_spec.of_string ft_pin_spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "pin spec: %s" e
  in
  List.iter
    (fun scheme ->
      let got = fingerprint (Fuzz_run.run_scheme spec ~scheme) in
      match List.assoc_opt scheme ft_pinned with
      | Some pinned -> Alcotest.(check string) scheme pinned got
      | None -> Alcotest.failf "%s is not pinned" scheme)
    [ "ecmp"; "spray"; "ar"; "psn-spray"; "themis"; "themis-nocomp"; "reps";
      "prime"; "sprinklers"; "spritz" ]

let () =
  Alcotest.run "fuzz_determinism"
    [
      ( "same seed, same bytes",
        [
          Alcotest.test_case "fault-injected spec" `Quick
            (test_with has_injection ~name:"fault-injected");
          Alcotest.test_case "link-fault spec" `Quick
            (test_with has_faults ~name:"link-fault");
          Alcotest.test_case "fat-tree spec" `Quick
            (test_with is_ft ~name:"fat-tree");
          Alcotest.test_case "harness double-run check" `Quick
            test_harness_det_check;
          Alcotest.test_case "divergence logs both summaries" `Quick
            test_divergence_logs_both_summaries;
          Alcotest.test_case "fat tree pinned under every scheme" `Quick
            test_fat_tree_pinned;
        ] );
      ( "interning",
        [
          Alcotest.test_case "reset at run boundary" `Quick
            test_intern_reset_at_run_boundary;
        ] );
    ]
