(* Sharded-simulation tests (DESIGN.md §14).

   The load-bearing property is outcome identity: a spec run serially
   ([Fuzz_run.run_scheme]) and sharded across domains
   ([Shard_run.run_scheme]) must agree on every oracle-visible result —
   summary counters, FCT percentiles, the canonical event multiset, the
   canonical metric registry, drops, OOO, Themis totals.  A second,
   independent property is shard-count invariance: 1-, 2- and 4-shard
   runs are byte-identical to each other by construction (canonical ring
   ordering), with no serial run involved.

   The box running CI may report a single recommended domain, so the
   suite sets THEMIS_SHARDS_FORCE before any sharded run. *)

let () = Unix.putenv Shard_part.force_env "1"

let spec_of_string_exn s =
  match Fuzz_spec.of_string s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad spec string: %s" e

(* ---------------- SPSC ring ---------------- *)

let test_ring_fifo () =
  let r = Spsc_ring.create ~capacity:8 ~stride:3 () in
  let buf = [| 0; 0; 0 |] in
  for i = 0 to 5 do
    buf.(0) <- i;
    buf.(1) <- (10 * i) + 1;
    buf.(2) <- (10 * i) + 2;
    Spsc_ring.push r ~src:buf ~off:0
  done;
  let seen = ref [] in
  let n =
    Spsc_ring.drain r (fun b off ->
        seen := (b.(off), b.(off + 1), b.(off + 2)) :: !seen)
  in
  Alcotest.(check int) "drained count" 6 n;
  Alcotest.(check (list (triple int int int)))
    "fifo order"
    (List.init 6 (fun i -> (i, (10 * i) + 1, (10 * i) + 2)))
    (List.rev !seen);
  Alcotest.(check bool) "empty after drain" true (Spsc_ring.is_empty r);
  Alcotest.(check int) "no spill" 0 (Spsc_ring.spilled r)

let test_ring_spill_preserves_order () =
  let r = Spsc_ring.create ~capacity:4 ~stride:1 () in
  let buf = [| 0 |] in
  for i = 0 to 9 do
    buf.(0) <- i;
    Spsc_ring.push r ~src:buf ~off:0
  done;
  Alcotest.(check int) "spilled" 6 (Spsc_ring.spilled r);
  let seen = ref [] in
  let n = Spsc_ring.drain r (fun b off -> seen := b.(off) :: !seen) in
  Alcotest.(check int) "drained count" 10 n;
  Alcotest.(check (list int)) "push order across spill"
    (List.init 10 Fun.id) (List.rev !seen)

let test_ring_cross_domain () =
  let total = 5_000 in
  let r = Spsc_ring.create ~capacity:64 ~stride:2 () in
  let producer =
    Domain.spawn (fun () ->
        let buf = [| 0; 0 |] in
        for i = 0 to total - 1 do
          buf.(0) <- i;
          buf.(1) <- i * 7;
          (* try_push first so the consumer-side path (ring, not spill)
             is exercised under real concurrency. *)
          if not (Spsc_ring.try_push r ~src:buf ~off:0) then
            Spsc_ring.push r ~src:buf ~off:0
        done)
  in
  (* Under concurrency a spilled record can be overtaken by a later
     ring push (the next drain pops ring before spill), so raw drain
     order is not FIFO — the contract is exactly-once intact delivery
     with push order recoverable from the carried sequence number,
     which is what Shard_net's barrier-time sort relies on. *)
  let seen = Array.make total false in
  let received = ref 0 in
  let ok = ref true in
  while !received < total do
    ignore
      (Spsc_ring.drain r (fun b off ->
           let i = b.(off) in
           if i < 0 || i >= total || seen.(i) || b.(off + 1) <> i * 7 then
             ok := false
           else seen.(i) <- true;
           incr received))
  done;
  Domain.join producer;
  Alcotest.(check bool) "each record delivered intact exactly once" true !ok;
  Alcotest.(check int) "all received" total !received

(* ---------------- Barrier ---------------- *)

let test_barrier_or_reduction () =
  let parties = 3 in
  let phases = 50 in
  let b = Domain_barrier.create parties in
  let run who () =
    let bad = ref 0 in
    for phase = 1 to phases do
      let combined = Domain_barrier.await b ~flags:(phase lsl (4 * who)) in
      let expect = (phase lsl 0) lor (phase lsl 4) lor (phase lsl 8) in
      if combined <> expect then incr bad
    done;
    !bad
  in
  let d1 = Domain.spawn (run 1) and d2 = Domain.spawn (run 2) in
  let bad0 = run 0 () in
  Alcotest.(check int) "party 0 sees full OR each phase" 0 bad0;
  Alcotest.(check int) "party 1" 0 (Domain.join d1);
  Alcotest.(check int) "party 2" 0 (Domain.join d2)

(* ---------------- Shard.advance ---------------- *)

let test_advance_windows () =
  let b = Domain_barrier.create 1 in
  let horizons = ref [] in
  let drains = ref [] in
  let run ~until = horizons := until :: !horizons in
  ignore
    (Shard.advance ~barrier:b ~lookahead:10
       ~run
       ~flags:(fun () -> 0)
       ~drain:(fun ~upto -> drains := upto :: !drains)
       ~from:0 ~until_:25 ());
  Alcotest.(check (list int)) "window horizons" [ 10; 20; 25 ]
    (List.rev !horizons);
  Alcotest.(check (list int)) "one drain per window, bounded by horizon"
    [ 10; 20; 25 ] (List.rev !drains);
  (* Empty span: no windows, no barrier phases. *)
  horizons := [];
  ignore
    (Shard.advance ~barrier:b ~lookahead:10 ~run
       ~flags:(fun () -> 0)
       ~drain:(fun ~upto:_ -> ())
       ~from:7 ~until_:7 ());
  Alcotest.(check (list int)) "empty span runs nothing" [] !horizons

let test_advance_invalid () =
  let b = Domain_barrier.create 1 in
  let nop ~until = ignore until in
  Alcotest.check_raises "lookahead 0"
    (Invalid_argument "Shard.advance: lookahead must be positive") (fun () ->
      ignore
        (Shard.advance ~barrier:b ~lookahead:0 ~run:nop
           ~flags:(fun () -> 0)
           ~drain:(fun ~upto:_ -> ()) ~from:0 ~until_:1 ()));
  Alcotest.check_raises "until < from"
    (Invalid_argument "Shard.advance: until_ < from") (fun () ->
      ignore
        (Shard.advance ~barrier:b ~lookahead:5 ~run:nop
           ~flags:(fun () -> 0)
           ~drain:(fun ~upto:_ -> ()) ~from:3 ~until_:2 ()))

let test_advance_abort () =
  let b = Domain_barrier.create 1 in
  let nop ~until = ignore until in
  Alcotest.check_raises "abort flag raises"
    (Shard.Aborted 4) (fun () ->
      ignore
        (Shard.advance ~abort_mask:4 ~barrier:b ~lookahead:5 ~run:nop
           ~flags:(fun () -> 4)
           ~drain:(fun ~upto:_ -> ()) ~from:0 ~until_:10 ()))

(* ---------------- Partitioner ---------------- *)

let test_partition () =
  match
    Shard_part.partition ~n_leaves:4 ~n_spines:3 ~hosts_per_leaf:2
      ~link_delay:1000 ~shards:2
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "shards" 2 (Shard_part.shards p);
      Alcotest.(check int) "lookahead = link delay" 1000
        (Shard_part.lookahead p);
      (* Hosts 0..7 follow their ToR; leaves 8..11 contiguous blocks;
         spines 12..14 round-robin. *)
      let owner = Shard_part.shard_of p in
      Alcotest.(check (list int)) "host owners" [ 0; 0; 0; 0; 1; 1; 1; 1 ]
        (List.init 8 owner);
      Alcotest.(check (list int)) "leaf owners" [ 0; 0; 1; 1 ]
        (List.init 4 (fun l -> owner (8 + l)));
      Alcotest.(check (list int)) "spine owners" [ 0; 1; 0 ]
        (List.init 3 (fun s -> owner (12 + s)));
      Alcotest.(check bool) "host<->ToR never crosses shards" true
        (List.for_all
           (fun h -> owner h = owner (8 + (h / 2)))
           (List.init 8 Fun.id))

let test_partition_errors () =
  let bad = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "shards > leaves rejected" true
    (bad
       (Shard_part.partition ~n_leaves:2 ~n_spines:2 ~hosts_per_leaf:1
          ~link_delay:100 ~shards:3));
  Alcotest.(check bool) "zero link delay rejected" true
    (bad
       (Shard_part.partition ~n_leaves:2 ~n_spines:2 ~hosts_per_leaf:1
          ~link_delay:0 ~shards:2));
  Alcotest.(check bool) "shards < 1 rejected" true
    (bad
       (Shard_part.partition ~n_leaves:2 ~n_spines:2 ~hosts_per_leaf:1
          ~link_delay:100 ~shards:0))

let test_supported_gate () =
  let clean =
    spec_of_string_exn
      "fz1;seed=1;shape=ls:2:2:1:40:40:1000;tr=sr;qf=100;ppcap=256;jit=0;\
       drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;schemes=spray;\
       flows=0>1:3000@0;faults="
  in
  Alcotest.(check bool) "clean ls spec supported" true
    (Shard_part.supported clean ~shards:2 = Ok ());
  let dirty = { clean with Fuzz_spec.drop_ppm = 5 } in
  Alcotest.(check bool) "ppm faults rejected" true
    (match Shard_part.supported dirty ~shards:2 with
    | Error _ -> true
    | Ok () -> false)

(* ---------------- Serial == sharded identity ---------------- *)

let check_float what a b =
  Alcotest.(check (float 1e-9)) what a b

(* Full oracle-visible equality of two outcomes.  Event dumps are
   compared as canonical (sorted) line multisets: serial and sharded
   runs interleave same-tick events from different components
   differently, but must agree on the multiset. *)
let check_outcomes ~what (a : Fuzz_run.outcome) (b : Fuzz_run.outcome) =
  let viol o =
    List.map
      (fun v -> (v.Fuzz_oracle.oracle, v.Fuzz_oracle.detail))
      o.Fuzz_run.o_violations
  in
  Alcotest.(check (list (pair string string)))
    (what ^ ": violations") (viol a) (viol b);
  Alcotest.(check bool) (what ^ ": summary") true
    (a.Fuzz_run.o_summary = b.Fuzz_run.o_summary);
  Alcotest.(check bool) (what ^ ": summary present") true
    (a.Fuzz_run.o_summary <> None);
  Alcotest.(check string) (what ^ ": canonical events")
    (Shard_run.canonical_events_jsonl a)
    (Shard_run.canonical_events_jsonl b);
  Alcotest.(check bool) (what ^ ": events non-empty") true
    (String.length a.Fuzz_run.o_events_jsonl > 0);
  Alcotest.(check int) (what ^ ": data packets") a.Fuzz_run.o_data_packets
    b.Fuzz_run.o_data_packets;
  Alcotest.(check int) (what ^ ": retx packets") a.Fuzz_run.o_retx_packets
    b.Fuzz_run.o_retx_packets;
  Alcotest.(check int) (what ^ ": drops") a.Fuzz_run.o_drops
    b.Fuzz_run.o_drops;
  Alcotest.(check int) (what ^ ": ooo") a.Fuzz_run.o_ooo b.Fuzz_run.o_ooo;
  check_float (what ^ ": completion time") a.Fuzz_run.o_completed_us
    b.Fuzz_run.o_completed_us;
  check_float (what ^ ": tail fct") a.Fuzz_run.o_tail_fct_us
    b.Fuzz_run.o_tail_fct_us;
  Alcotest.(check bool) (what ^ ": themis totals") true
    (a.Fuzz_run.o_themis = b.Fuzz_run.o_themis)

(* Run serially, then sharded, comparing outcomes AND the canonical
   metric registry (sampler rows excluded — see Shard_run).  Returns the
   serial outcome for further checks. *)
let check_identity ?(shards = 2) spec ~scheme =
  let serial = Fuzz_run.run_scheme spec ~scheme in
  let serial_csv = Shard_run.canonical_metrics_csv () in
  let sharded = Shard_run.run_scheme spec ~scheme ~shards in
  let sharded_csv = Shard_run.canonical_metrics_csv () in
  check_outcomes ~what:(Printf.sprintf "%s x%d" scheme shards) serial sharded;
  Alcotest.(check string)
    (Printf.sprintf "%s x%d: canonical metrics" scheme shards)
    serial_csv sharded_csv;
  Alcotest.(check bool)
    (Printf.sprintf "%s x%d: metrics non-empty" scheme shards)
    true
    (String.length serial_csv > 0);
  serial

(* Cross-shard permutation traffic on a 4-leaf fabric: every flow
   crosses the leaf (and with 2 shards, the shard) boundary. *)
let clean_spec =
  "fz1;seed=7;shape=ls:4:3:2:100:100:1000;tr=sr;qf=100;ppcap=256;jit=0;\
   drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;\
   schemes=ecmp+spray+themis;flows=0>7:60000@0,7>2:45000@3000,\
   2>5:30000@1500,5>0:20000@4500;faults="

let test_identity_clean () =
  let spec = spec_of_string_exn clean_spec in
  List.iter
    (fun scheme ->
      let serial = check_identity spec ~scheme in
      Alcotest.(check (list (pair string string)))
        (scheme ^ ": clean run has no violations") []
        (List.map
           (fun v -> (v.Fuzz_oracle.oracle, v.Fuzz_oracle.detail))
           serial.Fuzz_run.o_violations))
    [ "ecmp"; "spray"; "themis" ]

(* GBN transport, last-hop jitter and a derated spine: jitter draws come
   from per-port RNGs, so they are partition-independent; the slow spine
   exercises replicated control-plane reconfiguration. *)
let test_identity_jitter_slow_spine () =
  let spec =
    spec_of_string_exn
      "fz1;seed=8;shape=ls:4:2:2:40:40:1200;tr=gbn;qf=150;ppcap=9216;\
       jit=900;drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;\
       schemes=spray;flows=0>6:30000@0,6>1:25000@2000,3>4:20000@1000;\
       faults=;sspine=1:10"
  in
  ignore (check_identity spec ~scheme:"spray")

(* Synchronized equal-size incast: every flow shares one serialization
   grid, so exact same-tick cross-port collisions at the victim ToR are
   pervasive.  This is the documented carve-out where the serial
   engine's insertion order and the canonical (fire, tick, port, seq)
   order may legitimately differ — so the property asserted here is the
   one that holds exactly in this regime: 1-, 2- and 4-shard runs are
   byte-identical to each other, and the oracles hold. *)
let test_incast_tie_invariance () =
  let spec =
    spec_of_string_exn
      "fz1;seed=9;shape=ls:4:3:2:100:100:800;tr=sr;qf=100;ppcap=128;jit=0;\
       drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;schemes=themis;\
       flows=2>0:40000@0,4>0:40000@0,6>0:40000@0,3>1:40000@0,5>1:40000@0,\
       7>1:40000@0;faults="
  in
  let scheme = "themis" in
  let o1 = Shard_run.run_scheme spec ~scheme ~shards:1 in
  let o2 = Shard_run.run_scheme spec ~scheme ~shards:2 in
  let o4 = Shard_run.run_scheme spec ~scheme ~shards:4 in
  check_outcomes ~what:"incast 1 vs 2" o1 o2;
  check_outcomes ~what:"incast 1 vs 4" o1 o4;
  Alcotest.(check string) "incast raw dump identical 1 vs 4"
    o1.Fuzz_run.o_events_jsonl o4.Fuzz_run.o_events_jsonl;
  Alcotest.(check (list (pair string string)))
    "incast oracles hold sharded" []
    (List.map
       (fun v -> (v.Fuzz_oracle.oracle, v.Fuzz_oracle.detail))
       o2.Fuzz_run.o_violations)

(* ---------------- Frozen corpus: cross-shard link-down mid-flow ---- *)

(* A leaf0<->spine1 link dies permanently at 12 us while leaf-0 flows
   are in flight toward leaves 2 and 3 (the other shard).  Packets that
   are inside cross-shard rings or replica port queues when the fault
   fires must be dropped and booked exactly once, on the consumer's
   replica, and the shrink-mode respray must reconverge identically in
   serial and sharded runs.  Frozen: this exact string must keep passing
   as the shard machinery evolves. *)
(* 40 G hosts under a 100 G fabric: the two serialization grids are
   incommensurate, so this execution is free of the same-tick cross-port
   ties that void strict serial equality (see the incast test). *)
let fault_spec =
  "fz1;seed=13;shape=ls:4:2:2:40:100:1000;tr=sr;qf=100;ppcap=9216;jit=0;\
   drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
   schemes=spray+themis;flows=0>5:200000@0,1>7:151500@2333,6>0:119300@4741;\
   faults=9:12000:0"

let test_identity_link_down_mid_flow () =
  let spec = spec_of_string_exn fault_spec in
  (* The frozen fault id must stay a leaf0<->spine link as the topology
     generator evolves. *)
  (match spec.Fuzz_spec.link_faults with
  | [ f ] ->
      Alcotest.(check int) "fault is the leaf0<->spine1 link"
        (Fuzz_spec.fabric_link_id spec.Fuzz_spec.shape ~leaf:0 ~spine:1)
        f.Fuzz_spec.fault_link
  | _ -> Alcotest.fail "expected exactly one link fault");
  List.iter
    (fun scheme ->
      let serial = check_identity spec ~scheme in
      Alcotest.(check (list (pair string string)))
        (scheme ^ ": oracles hold across the fault") []
        (List.map
           (fun v -> (v.Fuzz_oracle.oracle, v.Fuzz_oracle.detail))
           serial.Fuzz_run.o_violations))
    [ "spray"; "themis" ]

(* ---------------- Shard-count invariance ---------------- *)

(* 1-, 2- and 4-shard runs all route every propagation through the
   canonical ring ordering, so they must be byte-identical to each
   other — including the raw (uncanonicalized) event dump. *)
let test_shard_count_invariance () =
  let spec = spec_of_string_exn clean_spec in
  let scheme = "spray" in
  let o1 = Shard_run.run_scheme spec ~scheme ~shards:1 in
  let o2 = Shard_run.run_scheme spec ~scheme ~shards:2 in
  let o4 = Shard_run.run_scheme spec ~scheme ~shards:4 in
  check_outcomes ~what:"1 vs 2 shards" o1 o2;
  check_outcomes ~what:"1 vs 4 shards" o1 o4;
  Alcotest.(check string) "raw event dump identical, 1 vs 2"
    o1.Fuzz_run.o_events_jsonl o2.Fuzz_run.o_events_jsonl;
  Alcotest.(check string) "raw event dump identical, 1 vs 4"
    o1.Fuzz_run.o_events_jsonl o4.Fuzz_run.o_events_jsonl

(* ---------------- Generated specs (property) ---------------- *)

(* From an arbitrary starting seed, the next generator output that the
   shard gate accepts must run 1-shard == 2-shard identical, raw event
   dump included.  Serial == sharded is not asserted here: a generated
   spec may contain an exact cross-port timing tie, which the serial
   engine may order differently (DESIGN.md §14, "Serial ties").  QCheck
   varies the starting seed; the scan makes every trial land on a
   supported spec, so no assumption waste. *)
let next_supported_spec start =
  let rec go s =
    if s > start + 5_000 then
      Alcotest.failf "no supported spec in seeds %d..%d" start (start + 5_000)
    else
      let spec = Fuzz_spec.generate ~seed:s () in
      match Shard_part.supported spec ~shards:2 with
      | Ok () -> spec
      | Error _ -> go (s + 1)
  in
  go start

let generated_shard_invariance start =
  let spec = next_supported_spec start in
  let scheme =
    match spec.Fuzz_spec.schemes with
    | s :: _ -> s
    | [] -> List.hd Fuzz_spec.all_schemes
  in
  let o1 = Shard_run.run_scheme spec ~scheme ~shards:1 in
  let o2 = Shard_run.run_scheme spec ~scheme ~shards:2 in
  o1.Fuzz_run.o_summary = o2.Fuzz_run.o_summary
  && o1.Fuzz_run.o_events_jsonl = o2.Fuzz_run.o_events_jsonl
  && o1.Fuzz_run.o_violations = o2.Fuzz_run.o_violations

let prop_generated_invariance =
  QCheck.Test.make ~name:"generated spec: 1-shard == 2-shard" ~count:3
    QCheck.(int_range 0 2_000)
    generated_shard_invariance

(* Start 1248 reaches a spec whose serial run orders an exact cross-port
   tie differently from the canonical sharded order (one 40 Gb/s frame
   time on one flow's completion); the shard counts still agree. *)
let test_generated_tie_start () =
  Alcotest.(check bool) "1-shard == 2-shard" true
    (generated_shard_invariance 1248)

(* ---------------- Unsupported / fail-fast paths ---------------- *)

let test_unsupported_raises () =
  let spec =
    { (spec_of_string_exn clean_spec) with Fuzz_spec.drop_ppm = 100 }
  in
  Alcotest.(check bool) "ppm spec raises Unsupported" true
    (try
       ignore (Shard_run.run_scheme spec ~scheme:"spray" ~shards:2);
       false
     with Shard_run.Unsupported _ -> true)

let test_force_env_gate () =
  (* With the override cleared, a single-core box must fail fast for
     shards > 1 and still accept shards = 1. *)
  Unix.putenv Shard_part.force_env "";
  let multi = Shard_part.ensure_domains ~shards:4 in
  let single = Shard_part.ensure_domains ~shards:1 in
  Unix.putenv Shard_part.force_env "1";
  (match (Domain.recommended_domain_count (), multi) with
  | 1, Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "error names the override" true
        (contains msg Shard_part.force_env)
  | 1, Ok () -> Alcotest.fail "single-core box accepted 4 shards"
  | _, _ -> ());
  Alcotest.(check bool) "one shard always fine" true (single = Ok ())

(* ---------------- Telemetry merge audit ---------------- *)

let test_telemetry_merge_deterministic () =
  (* Two per-shard contexts with overlapping counters and interleaved
     events: the merge must sum registries and stably time-sort the
     event streams, in shard-id order. *)
  let c0 = Telemetry.enable () in
  Telemetry.add_counter "packets_sent_total" 5;
  Telemetry.incr_counter "nacks_generated_total";
  Telemetry.record ~time:(Sim_time.ns 30)
    (Event.Retransmission { conn = Flow_id.make ~src:0 ~dst:1 ~qpn:1; psn = 3 });
  let c1 = Telemetry.enable () in
  Telemetry.add_counter "packets_sent_total" 7;
  Telemetry.record ~time:(Sim_time.ns 10)
    (Event.Retransmission { conn = Flow_id.make ~src:0 ~dst:1 ~qpn:2; psn = 8 });
  Telemetry.record ~time:(Sim_time.ns 30)
    (Event.Retransmission { conn = Flow_id.make ~src:0 ~dst:1 ~qpn:2; psn = 9 });
  let merged = Telemetry.merge [ c0; c1 ] in
  Telemetry.use merged;
  let m = Telemetry.metrics_exn () in
  Alcotest.(check int) "counters sum across shards" 12
    (Metrics.counter_total m "packets_sent_total");
  Alcotest.(check int) "counter present in only one shard" 1
    (Metrics.counter_total m "nacks_generated_total");
  let events = Telemetry.events merged in
  Alcotest.(check int) "all events retained" 3 (List.length events);
  Alcotest.(check (list int)) "stable time sort, shard order on ties"
    [ 10; 30; 30 ]
    (List.map fst events);
  (match events with
  | [ _; (_, Event.Retransmission { conn; _ }); _ ] ->
      Alcotest.(check bool) "tie broken by shard id" true
        (conn = Flow_id.make ~src:0 ~dst:1 ~qpn:1)
  | _ -> Alcotest.fail "unexpected event stream");
  Telemetry.disable ()

(* The same audit end-to-end: sharded runs install the merged context,
   and Experiment.telemetry_summary over it equals the unsharded one.
   (Covered field-by-field by the identity tests; here we pin that the
   merged context is what is installed after a sharded run.) *)
let test_merged_context_installed () =
  let spec = spec_of_string_exn clean_spec in
  ignore (Shard_run.run_scheme spec ~scheme:"ecmp" ~shards:2);
  Alcotest.(check bool) "telemetry context live after sharded run" true
    (Telemetry.ctx () <> None);
  Alcotest.(check bool) "summary readable from merged context" true
    (Experiment.telemetry_summary () <> None);
  Telemetry.disable ()

let () =
  Alcotest.run "shard"
    [
      ( "spsc ring",
        [
          Alcotest.test_case "fifo order" `Quick test_ring_fifo;
          Alcotest.test_case "spill preserves order" `Quick
            test_ring_spill_preserves_order;
          Alcotest.test_case "cross-domain transfer" `Quick
            test_ring_cross_domain;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "or-reduction over phases" `Quick
            test_barrier_or_reduction;
        ] );
      ( "advance",
        [
          Alcotest.test_case "window partition" `Quick test_advance_windows;
          Alcotest.test_case "invalid arguments" `Quick test_advance_invalid;
          Alcotest.test_case "abort protocol" `Quick test_advance_abort;
        ] );
      ( "partition",
        [
          Alcotest.test_case "tor-affine cut" `Quick test_partition;
          Alcotest.test_case "rejects bad cuts" `Quick test_partition_errors;
          Alcotest.test_case "support gate" `Quick test_supported_gate;
          Alcotest.test_case "single-core fail fast" `Quick
            test_force_env_gate;
          Alcotest.test_case "unsupported spec raises" `Quick
            test_unsupported_raises;
        ] );
      ( "serial == sharded",
        [
          Alcotest.test_case "clean permutation, three schemes" `Slow
            test_identity_clean;
          Alcotest.test_case "gbn + jitter + slow spine" `Slow
            test_identity_jitter_slow_spine;
          Alcotest.test_case "synchronized incast ties" `Slow
            test_incast_tie_invariance;
          Alcotest.test_case "frozen: link-down mid-flow cross-shard" `Slow
            test_identity_link_down_mid_flow;
          Alcotest.test_case "shard-count invariance 1/2/4" `Slow
            test_shard_count_invariance;
          Alcotest.test_case "generated spec with a serial tie" `Slow
            test_generated_tie_start;
          QCheck_alcotest.to_alcotest prop_generated_invariance;
        ] );
      ( "telemetry merge",
        [
          Alcotest.test_case "deterministic registry + event merge" `Quick
            test_telemetry_merge_deterministic;
          Alcotest.test_case "merged context installed" `Quick
            test_merged_context_installed;
        ] );
    ]
