(* Themis-Destination: tPSN identification, NACK blocking, compensation.
   The Fig. 4b and Fig. 4c walk-throughs appear as literal test cases. *)

let conn = Flow_id.make ~src:1 ~dst:5 ~qpn:9

let data psn =
  Packet.data ~conn ~sport:42 ~psn:(Psn.of_int psn) ~payload:1000
    ~last_of_msg:false ~birth:0 ()

let nack epsn = Packet.nack ~conn ~sport:42 ~epsn:(Psn.of_int epsn) ~birth:0

(* The destination ToR the instances under test stand for, and the clock
   that stamps their verdict events. *)
let tor = 6
let engine = Engine.create ()

let make ?(paths = 2) ?(capacity = 16) ?(compensation = true) () =
  let injected = ref [] in
  let d =
    Themis_d.create ~paths ~queue_capacity:capacity ~compensation ~node:tor
      ~clock:(fun () -> Engine.now engine)
      ~inject_nack:(fun ~conn:_ ~conn_id:_ ~sport:_ ~epsn ->
        injected := Psn.to_int epsn :: !injected)
      ()
  in
  (d, injected)

let decision = Alcotest.of_pp (fun ppf -> function
  | Themis_d.Forward -> Format.pp_print_string ppf "Forward"
  | Themis_d.Block -> Format.pp_print_string ppf "Block")

let test_fig4b_block_then_forward () =
  let d, injected = make () in
  (* Arrival order 0, 1, 3, 2 on two paths.  NACK(ePSN=2) was triggered by
     PSN 3 (different path): block.  Then 6, 4: NACK(ePSN=4) triggered by
     6 (same path): forward. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 1; 3 ];
  Alcotest.check decision "block invalid" Themis_d.Block (Themis_d.on_nack d (nack 2));
  Themis_d.on_data d (data 2);
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 6; 4 ];
  Alcotest.check decision "forward valid" Themis_d.Forward (Themis_d.on_nack d (nack 4));
  let s = Themis_d.stats d in
  Alcotest.(check int) "seen" 2 s.Themis_d.nacks_seen;
  Alcotest.(check int) "blocked" 1 s.Themis_d.nacks_blocked;
  Alcotest.(check int) "valid" 1 s.Themis_d.nacks_forwarded_valid;
  Alcotest.(check int) "no compensation fired" 0 s.Themis_d.compensation_sent;
  Alcotest.(check (list int)) "nothing injected" [] !injected

let test_fig4c_compensation () =
  let d, injected = make () in
  (* Fig. 4c: 0, 1, 3 arrive; NACK(2) blocked (BePSN=2, Valid).  PSN 2 is
     genuinely lost; later PSN 4 (same path as 2) proves it: Themis
     generates the NACK on the RNIC's behalf, exactly once. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 1; 3 ];
  Alcotest.check decision "blocked" Themis_d.Block (Themis_d.on_nack d (nack 2));
  Themis_d.on_data d (data 4);
  Alcotest.(check (list int)) "compensated NACK for 2" [ 2 ] !injected;
  (* Further same-residue packets must not re-compensate. *)
  Themis_d.on_data d (data 6);
  Alcotest.(check (list int)) "only once" [ 2 ] !injected;
  let s = Themis_d.stats d in
  Alcotest.(check int) "compensation_sent" 1 s.Themis_d.compensation_sent

let test_compensation_cancelled_by_arrival () =
  let d, injected = make () in
  (* Blocked NACK for 2, but 2 then arrives (it was only late): the Valid
     flag clears and a later same-path packet must not compensate. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 1; 3 ];
  Alcotest.check decision "blocked" Themis_d.Block (Themis_d.on_nack d (nack 2));
  Themis_d.on_data d (data 2);
  Themis_d.on_data d (data 4);
  Alcotest.(check (list int)) "no injection" [] !injected;
  let s = Themis_d.stats d in
  Alcotest.(check int) "cancelled" 1 s.Themis_d.compensation_cancelled

let test_race_expected_already_passed () =
  (* The expected packet passed the ToR while the NACK was in flight: it
     is still in the ring queue when the NACK is processed, so
     compensation must not arm at all. *)
  let d, injected = make () in
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 1; 3; 2 ];
  (* The NACK generated when 3 arrived reaches the ToR only now. *)
  Alcotest.check decision "still blocked" Themis_d.Block (Themis_d.on_nack d (nack 2));
  Themis_d.on_data d (data 4);
  Themis_d.on_data d (data 6);
  Alcotest.(check (list int)) "never compensates" [] !injected;
  let s = Themis_d.stats d in
  Alcotest.(check int) "counted as cancelled" 1 s.Themis_d.compensation_cancelled

let test_underflow_forwards () =
  let d, _ = make ~capacity:2 () in
  (* Ring too small: NACK whose trigger has been overwritten is forwarded
     conservatively. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 10; 11 ];
  (* ePSN beyond anything in the ring: the scan drains without a hit. *)
  Alcotest.check decision "forward on underflow" Themis_d.Forward
    (Themis_d.on_nack d (nack 20));
  let s = Themis_d.stats d in
  Alcotest.(check int) "underflow counted" 1 s.Themis_d.nacks_forwarded_underflow

let test_compensation_disabled () =
  let d, injected = make ~compensation:false () in
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 1; 3 ];
  Alcotest.check decision "still blocks" Themis_d.Block (Themis_d.on_nack d (nack 2));
  Themis_d.on_data d (data 4);
  Alcotest.(check (list int)) "no compensation" [] !injected

let test_four_paths_validation () =
  let d, _ = make ~paths:4 () in
  (* ePSN 1; trigger 5 shares residue 1 mod 4: valid.  Trigger 7 does
     not: invalid. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 5 ];
  Alcotest.check decision "same residue forwards" Themis_d.Forward
    (Themis_d.on_nack d (nack 1));
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 7 ];
  Alcotest.check decision "different residue blocks" Themis_d.Block
    (Themis_d.on_nack d (nack 2))

let test_register_flow () =
  let d, _ = make () in
  Themis_d.register_flow d conn;
  Alcotest.(check int) "registered" 1 (Flow_table.size (Themis_d.flow_table d));
  (* Data auto-registers other flows too. *)
  let other = Flow_id.make ~src:2 ~dst:6 ~qpn:1 in
  Themis_d.on_data d
    (Packet.data ~conn:other ~sport:1 ~psn:Psn.zero ~payload:10 ~last_of_msg:false
       ~birth:0 ());
  Alcotest.(check int) "auto" 2 (Flow_table.size (Themis_d.flow_table d))

let test_flows_isolated () =
  (* Ring queues are per-QP: traffic of one flow cannot satisfy the tPSN
     scan of another. *)
  let d, _ = make () in
  let other = Flow_id.make ~src:2 ~dst:6 ~qpn:1 in
  Themis_d.on_data d
    (Packet.data ~conn:other ~sport:1 ~psn:(Psn.of_int 50) ~payload:10
       ~last_of_msg:false ~birth:0 ());
  (* conn's own queue is empty -> underflow -> conservative forward. *)
  Alcotest.check decision "isolated" Themis_d.Forward (Themis_d.on_nack d (nack 0))

let test_wrong_kind_rejected () =
  let d, _ = make () in
  Alcotest.check_raises "on_data with nack"
    (Invalid_argument "Themis_d.on_data: not a data packet") (fun () ->
      Themis_d.on_data d (nack 0));
  Alcotest.check_raises "on_nack with data"
    (Invalid_argument "Themis_d.on_nack: not a NACK packet") (fun () ->
      ignore (Themis_d.on_nack d (data 0)))

let test_queue_overwrites_aggregate () =
  let d, _ = make ~capacity:2 () in
  for i = 0 to 9 do
    Themis_d.on_data d (data i)
  done;
  Alcotest.(check int) "overwrites" 8 (Themis_d.queue_overwrites d)

let test_set_paths () =
  let d, _ = make ~paths:4 () in
  Themis_d.set_paths d 2;
  Alcotest.(check int) "shrunk" 2 (Themis_d.paths d);
  (* Validation now runs mod 2: tPSN 3 vs ePSN 1 share a path. *)
  List.iter (fun x -> Themis_d.on_data d (data x)) [ 0; 3 ];
  Alcotest.check decision "mod-2 validity" Themis_d.Forward
    (Themis_d.on_nack d (nack 1));
  Alcotest.check_raises "invalid"
    (Invalid_argument "Themis_d.set_paths: paths must be positive") (fun () ->
      Themis_d.set_paths d 0)

let test_invalid_create () =
  Alcotest.check_raises "zero paths"
    (Invalid_argument "Themis_d.create: paths must be positive") (fun () ->
      ignore
        (Themis_d.create ~paths:0 ~queue_capacity:4 ~node:tor
           ~clock:(fun () -> Engine.now engine)
           ~inject_nack:(fun ~conn:_ ~conn_id:_ ~sport:_ ~epsn:_ -> ())
           ()))

let () =
  Alcotest.run "themis_d"
    [
      ( "validation (Fig. 4b)",
        [
          Alcotest.test_case "block then forward" `Quick test_fig4b_block_then_forward;
          Alcotest.test_case "four paths" `Quick test_four_paths_validation;
          Alcotest.test_case "underflow" `Quick test_underflow_forwards;
          Alcotest.test_case "flows isolated" `Quick test_flows_isolated;
        ] );
      ( "compensation (Fig. 4c)",
        [
          Alcotest.test_case "compensates real loss" `Quick test_fig4c_compensation;
          Alcotest.test_case "cancelled by arrival" `Quick test_compensation_cancelled_by_arrival;
          Alcotest.test_case "in-flight race" `Quick test_race_expected_already_passed;
          Alcotest.test_case "disabled" `Quick test_compensation_disabled;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "register" `Quick test_register_flow;
          Alcotest.test_case "wrong kinds" `Quick test_wrong_kind_rejected;
          Alcotest.test_case "overwrites" `Quick test_queue_overwrites_aggregate;
          Alcotest.test_case "set paths" `Quick test_set_paths;
          Alcotest.test_case "invalid create" `Quick test_invalid_create;
        ] );
    ]
