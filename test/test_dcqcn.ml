(* The DCQCN rate machine. *)

let line = Rate.gbps 100.

let make ?(cfg = Dcqcn.default) () =
  let engine = Engine.create () in
  (engine, Dcqcn.create ~engine ~config:cfg ~line_rate:line ())

let gbps t = Rate.to_gbps (Dcqcn.rate t)

let test_starts_at_line_rate () =
  let _, cc = make () in
  Alcotest.(check (float 1e-6)) "rc" 100. (gbps cc);
  Alcotest.(check (float 1e-6)) "rt" 100. (Rate.to_gbps (Dcqcn.target cc));
  Alcotest.(check (float 1e-9)) "alpha" 1. (Dcqcn.alpha cc);
  Alcotest.(check int) "no decreases" 0 (Dcqcn.decreases cc)

let test_cnp_decrease () =
  let _, cc = make () in
  (* First CNP with alpha=1: rc <- rc * (1 - (alpha')/2) where alpha' is
     updated first: alpha' = (1-g) + g = 1. *)
  Dcqcn.on_cnp cc;
  Alcotest.(check (float 0.2)) "halved" 50. (gbps cc);
  Alcotest.(check (float 1e-6)) "target snapshot" 100.
    (Rate.to_gbps (Dcqcn.target cc));
  Alcotest.(check int) "one decrease" 1 (Dcqcn.decreases cc)

let test_td_gates_decreases () =
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:900. ~td_us:50. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  let after_first = gbps cc in
  (* A second CNP within TD is ignored. *)
  Dcqcn.on_cnp cc;
  Alcotest.(check (float 1e-9)) "gated" after_first (gbps cc);
  Alcotest.(check int) "one decrease" 1 (Dcqcn.decreases cc);
  (* After TD elapses, the next CNP bites. *)
  ignore (Engine.schedule engine ~delay:(Sim_time.us 60) (fun () -> Dcqcn.on_cnp cc));
  Engine.run engine ~until:(Sim_time.us 61) ~max_events:10_000;
  Alcotest.(check bool) "second decrease" true (Dcqcn.decreases cc >= 2);
  Alcotest.(check bool) "lower" true (gbps cc < after_first)

let test_fast_recovery () =
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:55. ~td_us:4. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  let dropped = gbps cc in
  (* After one TI the first fast-recovery step halves the gap to Rt. *)
  Engine.run engine ~until:(Sim_time.us 56);
  let expect = (dropped +. 100.) /. 2. in
  Alcotest.(check (float 0.5)) "fast recovery step" expect (gbps cc);
  (* Eventually the rate returns to line and the timers park. *)
  Engine.run engine ~until:(Sim_time.ms 50);
  Alcotest.(check (float 1e-6)) "recovered" 100. (gbps cc);
  Engine.run engine;
  Alcotest.(check bool) "engine drains (timers parked)" true true

let test_ti_speed_matters () =
  (* The Fig. 5 effect: TI = 10 us recovers far faster than TI = 900 us. *)
  let recover ti_us =
    let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us ~td_us:4. in
    let engine, cc = make ~cfg () in
    Dcqcn.on_nack cc;
    Engine.run engine ~until:(Sim_time.us 300);
    gbps cc
  in
  let slow = recover 900. and fast = recover 10. in
  Alcotest.(check bool) "fast TI recovers more" true (fast > slow +. 10.);
  Alcotest.(check (float 1e-6)) "fast fully recovered" 100. fast

let test_nack_slow_start () =
  let _, cc = make () in
  Dcqcn.on_nack cc;
  Alcotest.(check (float 0.2)) "nack halves" 50. (gbps cc);
  Alcotest.(check int) "counts" 1 (Dcqcn.decreases cc)

let test_nack_gate () =
  let _, cc = make () in
  Dcqcn.on_nack cc;
  let r1 = gbps cc in
  (* NACK bursts within the episode gate do not stack decreases. *)
  Dcqcn.on_nack cc;
  Dcqcn.on_nack cc;
  Alcotest.(check (float 1e-9)) "gated" r1 (gbps cc)

let test_nack_disabled () =
  let cfg = { Dcqcn.default with Dcqcn.nack_slow_start = false } in
  let _, cc = make ~cfg () in
  Dcqcn.on_nack cc;
  Alcotest.(check (float 1e-6)) "ignored" 100. (gbps cc)

let test_timeout_floors_rate () =
  let _, cc = make () in
  Dcqcn.on_timeout cc;
  Alcotest.(check (float 1e-6)) "min rate"
    (Rate.to_gbps Rate.min_rate)
    (gbps cc)

let test_alpha_decays () =
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:900. ~td_us:4. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  let a0 = Dcqcn.alpha cc in
  Engine.run engine ~until:(Sim_time.us 500);
  Alcotest.(check bool) "alpha decayed" true (Dcqcn.alpha cc < a0)

let test_successive_cnps_decay_gently () =
  (* With alpha decaying, later decreases cut less than a full half. *)
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:55. ~td_us:4. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  Engine.run engine ~until:(Sim_time.ms 5);
  Alcotest.(check (float 1e-6)) "recovered" 100. (gbps cc);
  (* Alpha decayed well below 1 by now. *)
  Dcqcn.on_cnp cc;
  Alcotest.(check bool) "gentler cut" true (gbps cc > 55.)

let test_byte_counter_increase () =
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:100_000. ~td_us:4. in
  let _, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  let dropped = gbps cc in
  (* The timer is far away; byte-counter events (B = 10 MB) drive
     recovery alone. *)
  Dcqcn.on_bytes_sent cc 9_999_999;
  Alcotest.(check (float 1e-9)) "below B" dropped (gbps cc);
  Dcqcn.on_bytes_sent cc 1;
  Alcotest.(check bool) "byte counter recovers" true (gbps cc > dropped)

let test_increase_ladder () =
  (* Two CNPs TD apart leave Rt = 50 and Rc = 25 Gbps, below line rate,
     so every step of the ladder shows.  Each B = 10 MB sent is one
     increase event; the 100 ms TI timer never fires. *)
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:100_000. ~td_us:4. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  ignore (Engine.schedule engine ~delay:(Sim_time.us 5) (fun () -> Dcqcn.on_cnp cc));
  Engine.run engine ~until:(Sim_time.us 6);
  let target () = Rate.to_gbps (Dcqcn.target cc) in
  Alcotest.(check (float 1e-6)) "rt after cuts" 50. (target ());
  Alcotest.(check (float 1e-6)) "rc after cuts" 25. (gbps cc);
  let step name ~rt =
    let rc = gbps cc in
    Dcqcn.on_bytes_sent cc 10_000_000;
    Alcotest.(check (float 1e-6)) (name ^ " rt") rt (target ());
    Alcotest.(check (float 1e-6)) (name ^ " rc") ((rc +. rt) /. 2.) (gbps cc)
  in
  (* F = 5 fast-recovery events: Rt holds, Rc halves the gap. *)
  for i = 1 to 5 do
    step (Printf.sprintf "fast recovery %d" i) ~rt:50.
  done;
  (* Events 6-10: additive increase, Rai = 40 Mbps each. *)
  for i = 1 to 5 do
    step (Printf.sprintf "additive %d" i) ~rt:(50. +. (0.04 *. float_of_int i))
  done;
  (* Then hyper increase, Rhai = 400 Mbps each. *)
  for i = 1 to 3 do
    step (Printf.sprintf "hyper %d" i) ~rt:(50.2 +. (0.4 *. float_of_int i))
  done

let test_rate_never_exceeds_line () =
  let cfg = Dcqcn.with_ti_td Dcqcn.default ~ti_us:5. ~td_us:4. in
  let engine, cc = make ~cfg () in
  Dcqcn.on_cnp cc;
  Engine.run engine ~until:(Sim_time.ms 10);
  Alcotest.(check bool) "clamped" true (gbps cc <= 100. +. 1e-9)

let () =
  Alcotest.run "dcqcn"
    [
      ( "decrease",
        [
          Alcotest.test_case "initial state" `Quick test_starts_at_line_rate;
          Alcotest.test_case "cnp" `Quick test_cnp_decrease;
          Alcotest.test_case "TD gating" `Quick test_td_gates_decreases;
          Alcotest.test_case "nack slow start" `Quick test_nack_slow_start;
          Alcotest.test_case "nack gate" `Quick test_nack_gate;
          Alcotest.test_case "nack disabled" `Quick test_nack_disabled;
          Alcotest.test_case "timeout" `Quick test_timeout_floors_rate;
        ] );
      ( "increase",
        [
          Alcotest.test_case "fast recovery" `Quick test_fast_recovery;
          Alcotest.test_case "TI speed" `Quick test_ti_speed_matters;
          Alcotest.test_case "alpha decay" `Quick test_alpha_decays;
          Alcotest.test_case "gentle later cuts" `Quick test_successive_cnps_decay_gently;
          Alcotest.test_case "byte counter" `Quick test_byte_counter_increase;
          Alcotest.test_case "ladder" `Quick test_increase_ladder;
          Alcotest.test_case "clamped at line" `Quick test_rate_never_exceeds_line;
        ] );
    ]
