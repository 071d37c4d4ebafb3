(* Load-balancing policies. *)

let conn = Flow_id.make ~src:3 ~dst:4 ~qpn:2

let data psn =
  Packet.data ~conn ~sport:777 ~psn:(Psn.of_int psn) ~payload:1000
    ~last_of_msg:false ~birth:0 ()

let ack () = Packet.ack ~conn ~sport:777 ~psn:Psn.zero ~birth:0
let no_load _ = 0

let test_ecmp_stable () =
  let rng = Rng.create ~seed:1 in
  let first =
    Lb_policy.choose Lb_policy.Ecmp ~rng ~pkt:(data 0) ~n:8 ~load:no_load
  in
  for psn = 1 to 50 do
    Alcotest.(check int) "same path for all psns" first
      (Lb_policy.choose Lb_policy.Ecmp ~rng ~pkt:(data psn) ~n:8 ~load:no_load)
  done

let test_ecmp_matches_index () =
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "ecmp_index agrees"
    (Lb_policy.ecmp_index ~pkt:(data 0) ~n:8)
    (Lb_policy.choose Lb_policy.Ecmp ~rng ~pkt:(data 0) ~n:8 ~load:no_load)

let test_random_spray_spread () =
  let rng = Rng.create ~seed:2 in
  let counts = Array.make 4 0 in
  for psn = 0 to 3999 do
    let i =
      Lb_policy.choose Lb_policy.Random_spray ~rng ~pkt:(data psn) ~n:4
        ~load:no_load
    in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

let test_adaptive_picks_min () =
  let rng = Rng.create ~seed:3 in
  let load i = [| 500; 100; 900; 300 |].(i) in
  Alcotest.(check int) "min queue" 1
    (Lb_policy.choose Lb_policy.Adaptive ~rng ~pkt:(data 0) ~n:4 ~load)

let test_adaptive_tie_break_uniform () =
  let rng = Rng.create ~seed:4 in
  let load _ = 0 in
  let counts = Array.make 4 0 in
  for psn = 0 to 3999 do
    let i = Lb_policy.choose Lb_policy.Adaptive ~rng ~pkt:(data psn) ~n:4 ~load in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "ties spread" true (c > 800 && c < 1200))
    counts

let test_psn_spray_eq1 () =
  let rng = Rng.create ~seed:5 in
  let n = 4 in
  let base =
    Spray.base_for_flow conn ~sport:777 ~paths:n
  in
  for psn = 0 to 63 do
    Alcotest.(check int) "Eq. 1"
      (((psn mod n) + base) mod n)
      (Lb_policy.choose Lb_policy.Psn_spray ~rng ~pkt:(data psn) ~n ~load:no_load)
  done

let test_control_always_ecmp () =
  let rng = Rng.create ~seed:6 in
  let expected = Lb_policy.ecmp_index ~pkt:(ack ()) ~n:4 in
  List.iter
    (fun policy ->
      for _ = 1 to 10 do
        Alcotest.(check int) "control pinned" expected
          (Lb_policy.choose policy ~rng ~pkt:(ack ()) ~n:4 ~load:no_load)
      done)
    Lb_policy.all

let test_single_candidate () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun policy ->
      Alcotest.(check int) "only choice" 0
        (Lb_policy.choose policy ~rng ~pkt:(data 5) ~n:1 ~load:no_load))
    Lb_policy.all

let test_no_candidates () =
  let rng = Rng.create ~seed:8 in
  Alcotest.check_raises "empty" (Invalid_argument "Lb_policy.choose: no candidates")
    (fun () ->
      ignore (Lb_policy.choose Lb_policy.Ecmp ~rng ~pkt:(data 0) ~n:0 ~load:no_load))

let prop_choose_in_range =
  QCheck.Test.make ~name:"choice always within candidates" ~count:500
    QCheck.(triple (int_range 1 16) (int_range 0 10_000) (int_range 0 7))
    (fun (n, psn, which) ->
      let rng = Rng.create ~seed:9 in
      let policy = List.nth Lb_policy.all which in
      let i = Lb_policy.choose policy ~rng ~pkt:(data psn) ~n ~load:no_load in
      i >= 0 && i < n)

(* ------------------------------------------------------------------ *)
(* Rival sprayers: per-policy behavioural invariants (the oracles the
   arena fuzz layer asserts, exercised here directly). *)

let counter name = List.assoc name (Lb_state.counters ())

(* REPS recycles clean-ACKed entropies oldest-first, and falls back to
   fresh randomness once the cache drains. *)
let test_reps_recycles_fifo () =
  Lb_state.reset_globals ();
  let st = Lb_state.create () in
  let rng = Rng.create ~seed:10 in
  List.iter
    (fun e -> Lb_state.reps_feedback st ~conn_id:0 ~entropy:e ~ce:false)
    [ 111; 222; 333 ];
  List.iter
    (fun e ->
      Alcotest.(check int) "fifo recycle" e
        (Lb_state.reps_next st ~conn_id:0 ~rng))
    [ 111; 222; 333 ];
  ignore (Lb_state.reps_next st ~conn_id:0 ~rng);
  Alcotest.(check int) "recycled" 3 (counter "reps_recycled");
  Alcotest.(check int) "fresh after drain" 1 (counter "reps_fresh");
  Alcotest.(check int) "tainted recycled" 0 (counter "reps_tainted_recycled")

(* A CE-marked echo evicts the entropy from the cache: the next pick
   must come from the RNG, not the ring. *)
let test_reps_ce_evicts () =
  Lb_state.reset_globals ();
  let st = Lb_state.create () in
  let rng = Rng.create ~seed:11 in
  Lb_state.reps_feedback st ~conn_id:0 ~entropy:42 ~ce:false;
  Lb_state.reps_feedback st ~conn_id:0 ~entropy:42 ~ce:true;
  ignore (Lb_state.reps_next st ~conn_id:0 ~rng);
  Alcotest.(check int) "nothing recycled" 0 (counter "reps_recycled");
  Alcotest.(check int) "fresh instead" 1 (counter "reps_fresh")

(* The REPS invariant proper, under arbitrary echo/pick interleavings:
   an entropy whose last echo saw ECN is never served from the cache.
   The mirror tracks taint with the same clean-echo-rehabilitates
   semantics; the small entropy domain keeps it under the module's
   eviction caps so the mirror stays exact. *)
let prop_reps_never_recycles_tainted =
  QCheck.Test.make ~name:"REPS never recycles a tainted entropy" ~count:200
    QCheck.(
      pair (int_range 0 9999)
        (list_of_size Gen.(int_range 1 60) (pair (int_range 0 7) bool)))
    (fun (seed, ops) ->
      Lb_state.reset_globals ();
      let st = Lb_state.create () in
      let rng = Rng.create ~seed in
      let tainted = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (e, ce) ->
          Lb_state.reps_feedback st ~conn_id:0 ~entropy:e ~ce;
          if ce then Hashtbl.replace tainted e ()
          else Hashtbl.remove tainted e;
          let before = counter "reps_recycled" in
          let r = Lb_state.reps_next st ~conn_id:0 ~rng in
          let recycled = counter "reps_recycled" > before in
          if recycled && Hashtbl.mem tainted r then ok := false)
        ops;
      !ok && counter "reps_tainted_recycled" = 0)

(* PRIME's entropy is a (12-bit pseudo-random base, 4-bit adaptive)
   composition: the adaptive part never disturbs the base bits, and
   distinct adaptive parts always yield distinct entropies. *)
let prop_prime_parts_injective =
  QCheck.Test.make ~name:"PRIME entropy parts compose injectively" ~count:300
    QCheck.(triple (int_range 0 10_000) (int_range 0 15) (int_range 0 15))
    (fun (psn, k1, k2) ->
      let rng = Rng.create ~seed:12 in
      let sport_after k =
        let st = Lb_state.create () in
        let pkt = data psn in
        for _ = 1 to k do
          Lb_state.prime_feedback st ~conn_id:pkt.Packet.conn_id ~ce:true
        done;
        ignore
          (Lb_policy.choose ~state:st Lb_policy.Prime ~rng ~pkt ~n:4
             ~load:no_load);
        pkt.Packet.udp_sport
      in
      let e1 = sport_after k1 and e2 = sport_after k2 in
      e1 land 0xFFF = e2 land 0xFFF
      && (if k1 = k2 then e1 = e2 else e1 <> e2))

(* Sprinklers' no-overtake condition: whenever the flow's output
   changes, the new queue was at least as deep as the old one at
   decision time — under symmetric rates that is exactly the
   reordering-free guarantee.  Queues evolve with the flow's own bytes
   plus random cross-traffic and drain. *)
let prop_sprinklers_no_overtake =
  QCheck.Test.make
    ~name:"Sprinklers switches only to deeper-or-equal queues" ~count:150
    QCheck.(
      pair (int_range 0 9999) (list_of_size Gen.(int_range 1 200) (int_range 500 1500)))
    (fun (seed, sizes) ->
      let st = Lb_state.create () in
      let churn = Rng.create ~seed in
      let n = 4 in
      let q = Array.make n 0 in
      let ok = ref true in
      let prev = ref (-1) in
      List.iter
        (fun bytes ->
          let snap = Array.copy q in
          let i =
            Lb_state.sprinkler_choose st ~conn_id:0 ~bytes ~n ~load:(fun j ->
                q.(j))
          in
          if !prev >= 0 && i <> !prev && snap.(i) < snap.(!prev) then
            ok := false;
          prev := i;
          q.(i) <- q.(i) + bytes;
          for j = 0 to n - 1 do
            q.(j) <-
              Stdlib.max 0 (q.(j) + Rng.int churn 500 - Rng.int churn 2000)
          done)
        sizes;
      !ok)

(* Differential uniformity check: on a symmetric fabric (equal loads,
   uniform weights) every spraying policy must spread its packets close
   to evenly.  Chi-squared with df = 3; 30 is far beyond the p = 0.001
   cut of 16.3, so only a systematically skewed policy trips it. *)
let chi2 counts =
  let total = Array.fold_left ( + ) 0 counts in
  let e = float_of_int total /. float_of_int (Array.length counts) in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. e in
      acc +. (d *. d /. e))
    0. counts

let test_spraying_uniformity_differential () =
  let n = 4 in
  let weights = Array.make n 1 in
  List.iter
    (fun policy ->
      Lb_state.reset_globals ();
      let st = Lb_state.create () in
      let rng = Rng.create ~seed:13 in
      let counts = Array.make n 0 in
      for psn = 0 to 3999 do
        let i =
          Lb_policy.choose ~state:st ~weights policy ~rng ~pkt:(data psn) ~n
            ~load:no_load
        in
        counts.(i) <- counts.(i) + 1
      done;
      let x = chi2 counts in
      if x >= 30. then
        Alcotest.failf "%s skewed on symmetric fabric: chi2=%.1f [%s]"
          (Lb_policy.to_string policy) x
          (String.concat ";"
             (Array.to_list (Array.map string_of_int counts))))
    Lb_policy.
      [ Random_spray; Psn_spray; Reps; Prime; Sprinklers; Spritz ]

let () =
  Alcotest.run "lb_policy"
    [
      ( "policies",
        [
          Alcotest.test_case "ecmp stable" `Quick test_ecmp_stable;
          Alcotest.test_case "ecmp index" `Quick test_ecmp_matches_index;
          Alcotest.test_case "random spread" `Quick test_random_spray_spread;
          Alcotest.test_case "adaptive min" `Quick test_adaptive_picks_min;
          Alcotest.test_case "adaptive ties" `Quick test_adaptive_tie_break_uniform;
          Alcotest.test_case "psn spray Eq.1" `Quick test_psn_spray_eq1;
          Alcotest.test_case "control ecmp" `Quick test_control_always_ecmp;
          Alcotest.test_case "single candidate" `Quick test_single_candidate;
          Alcotest.test_case "no candidates" `Quick test_no_candidates;
          QCheck_alcotest.to_alcotest prop_choose_in_range;
        ] );
      ( "rivals",
        [
          Alcotest.test_case "reps fifo recycle" `Quick test_reps_recycles_fifo;
          Alcotest.test_case "reps ce evicts" `Quick test_reps_ce_evicts;
          QCheck_alcotest.to_alcotest prop_reps_never_recycles_tainted;
          QCheck_alcotest.to_alcotest prop_prime_parts_injective;
          QCheck_alcotest.to_alcotest prop_sprinklers_no_overtake;
          Alcotest.test_case "uniformity differential" `Quick
            test_spraying_uniformity_differential;
        ] );
    ]
