(* Bechamel micro-benchmarks of the data-plane primitives a Tofino
   implementation would care about (per-packet spray decision, ring
   push, NACK validation, PathMap rewrite, event-queue churn) and of the
   telemetry hot paths.  Prints one ns/op row per primitive.

   Usage: main.exe [micro]

   The paper's figures and tables come from the campaign presets
   (`themis_campaign_cli run|report --preset ...`) and `themis_cli`
   (`motivation --series`, `table1`); see EXPERIMENTS.md. *)

let micro () =
  Format.printf
    "@.==================== Micro-benchmarks (per-packet primitives) \
     ====================@.";
  let open Bechamel in
  let conn = Flow_id.make ~src:1 ~dst:2 ~qpn:3 in
  let spray_test =
    Test.make ~name:"spray: Eq.1 path decision"
      (Staged.stage (fun () ->
           ignore
             (Spray.path_for_psn ~psn:(Psn.of_int 123456) ~base:7 ~paths:256)))
  in
  let validate_test =
    Test.make ~name:"spray: Eq.3 NACK validation"
      (Staged.stage (fun () ->
           ignore
             (Spray.nack_is_valid ~tpsn:(Psn.of_int 1001) ~epsn:(Psn.of_int 998)
                ~paths:256)))
  in
  let ring = Psn_queue.create ~capacity:128 in
  let ring_counter = ref 0 in
  let ring_test =
    Test.make ~name:"psn_queue: push (ring)"
      (Staged.stage (fun () ->
           incr ring_counter;
           Psn_queue.push ring (Psn.of_int !ring_counter)))
  in
  let scan_queue = Psn_queue.create ~capacity:128 in
  let scan_counter = ref 0 in
  let scan_test =
    Test.make ~name:"psn_queue: tPSN scan (push+pop_until_greater)"
      (Staged.stage (fun () ->
           Psn_queue.push scan_queue (Psn.of_int (!scan_counter + 3));
           Psn_queue.push scan_queue (Psn.of_int !scan_counter);
           ignore
             (Psn_queue.pop_until_greater scan_queue (Psn.of_int !scan_counter));
           scan_counter := !scan_counter + 4))
  in
  let map = Path_map.build ~paths:256 in
  let pathmap_test =
    Test.make ~name:"path_map: sport rewrite"
      (Staged.stage (fun () ->
           ignore (Path_map.rewrite map ~sport:0xBEEF ~delta_path:37)))
  in
  let hash_test =
    Test.make ~name:"ecmp: 5-tuple flow hash"
      (Staged.stage (fun () ->
           ignore (Ecmp_hash.flow_hash ~src:11 ~dst:22 ~sport:3333 ~dport:4791)))
  in
  let heap = Event_queue.create () in
  let heap_counter = ref 0 in
  let heap_test =
    Test.make ~name:"event_queue: add+pop"
      (Staged.stage (fun () ->
           incr heap_counter;
           ignore
             (Event_queue.add heap
                ~time:(!heap_counter land 1023)
                ~cb:0 ~obj:(Obj.repr ()));
           if !heap_counter land 7 = 0 && not (Event_queue.is_empty heap)
           then Event_queue.release heap (Event_queue.pop heap)))
  in
  let packet_test =
    Test.make ~name:"packet: data constructor"
      (Staged.stage (fun () ->
           ignore
             (Packet.data ~conn ~sport:9 ~psn:(Psn.of_int 5) ~payload:1500
                ~last_of_msg:false ~birth:0 ())))
  in
  (* Telemetry hot paths; the histogram record must stay under ~100 ns or
     instrumenting per-packet sites would distort the simulator. *)
  let hist = Histogram.create () in
  let hist_counter = ref 0 in
  let hist_test =
    Test.make ~name:"telemetry: histogram record"
      (Staged.stage (fun () ->
           incr hist_counter;
           Histogram.record hist (float_of_int (1 + (!hist_counter land 0xFFFF)))))
  in
  let registry = Metrics.create () in
  let cached = Metrics.counter registry "bench_counter" in
  let counter_test =
    Test.make ~name:"telemetry: counter incr (cached handle)"
      (Staged.stage (fun () -> Metrics.incr cached))
  in
  let tele_ctx = Telemetry.enable ~event_capacity:4096 () in
  ignore tele_ctx;
  let ev_counter = ref 0 in
  let event_test =
    Test.make ~name:"telemetry: event record (ring)"
      (Staged.stage (fun () ->
           incr ev_counter;
           Telemetry.record ~time:!ev_counter
             (Event.Retransmission { conn; psn = !ev_counter })))
  in
  let tests =
    [
      spray_test; validate_test; ring_test; scan_test; pathmap_test; hash_test;
      heap_test; packet_test; hist_test; counter_test; event_test;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Format.printf "%-48s %14s@." "primitive" "cost";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "%-48s %10.1f ns/op@." name est
          | Some [] | None -> Format.printf "%-48s %14s@." name "n/a")
        analyzed)
    tests;
  Telemetry.disable ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "micro" ] -> micro ()
  | args ->
      Format.eprintf "unknown bench arguments %S; the only target is micro@."
        (String.concat " " args);
      exit 2
