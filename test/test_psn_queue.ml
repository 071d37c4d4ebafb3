(* The ring-based PSN queue of Section 3.3. *)

let psn = Alcotest.testable Psn.pp Psn.equal
let p = Psn.of_int

let test_fifo () =
  let q = Psn_queue.create ~capacity:8 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Psn_queue.length q);
  Alcotest.(check (option psn)) "pop 1" (Some (p 1)) (Psn_queue.pop q);
  Alcotest.(check (option psn)) "pop 2" (Some (p 2)) (Psn_queue.pop q);
  Psn_queue.push q (p 4);
  Alcotest.(check (option psn)) "pop 3" (Some (p 3)) (Psn_queue.pop q);
  Alcotest.(check (option psn)) "pop 4" (Some (p 4)) (Psn_queue.pop q);
  Alcotest.(check (option psn)) "empty" None (Psn_queue.pop q)

let test_overwrite_oldest () =
  let q = Psn_queue.create ~capacity:3 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "full" 3 (Psn_queue.length q);
  Alcotest.(check int) "overwrites" 2 (Psn_queue.overwrites q);
  Alcotest.(check (list int)) "holds newest"
    [ 3; 4; 5 ]
    (List.map Psn.to_int (Psn_queue.to_list q))

let test_pop_until_greater () =
  (* The Fig. 4b walk-through: queue [0;1;3;2], NACK ePSN = 2 -> tPSN 3,
     with entries up to it consumed. *)
  let q = Psn_queue.create ~capacity:8 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 0; 1; 3; 2 ];
  Alcotest.(check int) "tPSN 3" 3
    (Psn_queue.pop_until_greater q (p 2));
  Alcotest.(check (list int)) "rest" [ 2 ]
    (List.map Psn.to_int (Psn_queue.to_list q));
  (* Fig. 4b continued: after 2,6,4 pushed, NACK ePSN = 4 -> tPSN 6. *)
  Psn_queue.push q (p 6);
  Psn_queue.push q (p 4);
  Alcotest.(check int) "tPSN 6" 6
    (Psn_queue.pop_until_greater q (p 4));
  Alcotest.(check (list int)) "only 4 left" [ 4 ]
    (List.map Psn.to_int (Psn_queue.to_list q))

let test_pop_until_greater_underflow () =
  let q = Psn_queue.create ~capacity:4 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 1; 2 ];
  Alcotest.(check int) "drains" (-1) (Psn_queue.pop_until_greater q (p 5));
  Alcotest.(check bool) "empty after" true (Psn_queue.is_empty q)

let test_pop_until_greater_empty () =
  (* Underflow on an empty ring is -1 and leaves it usable; PSN 0 is a
     real answer, not the underflow value. *)
  let q = Psn_queue.create ~capacity:2 in
  Alcotest.(check int) "empty underflows" (-1)
    (Psn_queue.pop_until_greater q (p 0));
  Alcotest.(check int) "still empty" 0 (Psn_queue.length q);
  Psn_queue.push q (p 0);
  Alcotest.(check int) "PSN 0 found" 0
    (Psn_queue.pop_until_greater q (p (Psn.modulus - 1)));
  Alcotest.(check int) "drained again" (-1)
    (Psn_queue.pop_until_greater q (p 0))

let test_pop_until_greater_wraparound () =
  (* Near the 24-bit wrap, "greater" is circular. *)
  let q = Psn_queue.create ~capacity:8 in
  Psn_queue.push q (p (Psn.modulus - 2));
  Psn_queue.push q (p 1);
  Alcotest.(check int) "wraps" 1
    (Psn_queue.pop_until_greater q (p (Psn.modulus - 1)))

let test_contains () =
  let q = Psn_queue.create ~capacity:4 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 5; 6; 7 ];
  Alcotest.(check bool) "has 6" true (Psn_queue.contains q (p 6));
  Alcotest.(check bool) "no 9" false (Psn_queue.contains q (p 9));
  ignore (Psn_queue.pop q);
  Alcotest.(check bool) "popped gone" false (Psn_queue.contains q (p 5));
  (* After wrap-around overwrite, only live entries are searched. *)
  List.iter (fun x -> Psn_queue.push q (p x)) [ 8; 9; 10 ];
  Alcotest.(check bool) "6 overwritten" false (Psn_queue.contains q (p 6));
  Alcotest.(check bool) "10 present" true (Psn_queue.contains q (p 10))

let test_clear () =
  let q = Psn_queue.create ~capacity:4 in
  Psn_queue.push q (p 1);
  Psn_queue.clear q;
  Alcotest.(check bool) "cleared" true (Psn_queue.is_empty q);
  Alcotest.(check int) "capacity kept" 4 (Psn_queue.capacity q)

let test_capacity_for () =
  (* Section 4 worked example: 400 Gbps x 2 us x 1.5 / 1500 B = 100. *)
  Alcotest.(check int) "table1 value" 100
    (Psn_queue.capacity_for ~bw:(Rate.gbps 400.) ~rtt:(Sim_time.us 2) ~mtu:1500
       ~factor:1.5);
  (* Ceil and floor-at-one behaviour. *)
  Alcotest.(check int) "at least 1" 1
    (Psn_queue.capacity_for ~bw:(Rate.gbps 0.001) ~rtt:(Sim_time.ns 10) ~mtu:1500
       ~factor:1.5);
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Psn_queue.capacity_for: factor") (fun () ->
      ignore
        (Psn_queue.capacity_for ~bw:(Rate.gbps 1.) ~rtt:1 ~mtu:1500 ~factor:0.))

let test_capacity_one () =
  (* A one-slot ring: each push evicts the previous entry, and the
     NACK-to-tPSN recovery still works on the sole survivor. *)
  let q = Psn_queue.create ~capacity:1 in
  List.iter (fun x -> Psn_queue.push q (p x)) [ 3; 4; 5 ];
  Alcotest.(check int) "length 1" 1 (Psn_queue.length q);
  Alcotest.(check int) "two overwrites" 2 (Psn_queue.overwrites q);
  Alcotest.(check (list int)) "newest survives" [ 5 ]
    (List.map Psn.to_int (Psn_queue.to_list q));
  Alcotest.(check int) "tPSN from sole entry" 5
    (Psn_queue.pop_until_greater q (p 4));
  Alcotest.(check bool) "drained" true (Psn_queue.is_empty q)

let test_overwrite_eviction_order () =
  (* Sustained overflow evicts strictly oldest-first even as the
     internal cursor wraps several times over the backing array. *)
  let q = Psn_queue.create ~capacity:3 in
  for x = 0 to 10 do
    Psn_queue.push q (p x)
  done;
  Alcotest.(check (list int)) "newest three, oldest first" [ 8; 9; 10 ]
    (List.map Psn.to_int (Psn_queue.to_list q));
  Alcotest.(check int) "overwrites" 8 (Psn_queue.overwrites q);
  ignore (Psn_queue.pop q);
  Psn_queue.push q (p 11);
  Psn_queue.push q (p 12);
  Alcotest.(check (list int)) "pop then overflow once more" [ 10; 11; 12 ]
    (List.map Psn.to_int (Psn_queue.to_list q))

let test_scan_miss_evicted_trigger () =
  (* The failure mode the §4 sizing rule (factor F > 1) guards against:
     the OOO packet that triggered the NACK was pushed, but the ring was
     undersized and overwrote it before the NACK returned.  The scan for
     "first PSN greater than ePSN" then either drains entirely, or —
     worse — surfaces a *later* packet as the presumed trigger. *)
  let q = Psn_queue.create ~capacity:2 in
  (* Forwarding order 1,3,2: the RNIC NACKs ePSN=2 with trigger tPSN=3.
     Subsequent traffic 4,5 overwrites both 1 and the true trigger 3. *)
  List.iter (fun x -> Psn_queue.push q (p x)) [ 1; 3; 2; 4; 5 ];
  Alcotest.(check (list int)) "trigger 3 already evicted" [ 4; 5 ]
    (List.map Psn.to_int (Psn_queue.to_list q));
  (* The scan cannot distinguish the evicted trigger: it consumes until
     the first PSN > 2 and misattributes packet 4 as the trigger. *)
  Alcotest.(check int) "scan surfaces wrong tPSN" 4
    (Psn_queue.pop_until_greater q (p 2));
  (* If instead *everything* at or below the ePSN was evicted too, the
     scan drains without an answer. *)
  let q2 = Psn_queue.create ~capacity:2 in
  List.iter (fun x -> Psn_queue.push q2 (p x)) [ 5; 3; 1; 2 ];
  Alcotest.(check int) "drains on stale low entries" (-1)
    (Psn_queue.pop_until_greater q2 (p 2));
  Alcotest.(check bool) "empty after miss" true (Psn_queue.is_empty q2)

let test_invalid_capacity () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Psn_queue.create: capacity must be >= 1") (fun () ->
      ignore (Psn_queue.create ~capacity:0))

(* Model-based property: the ring behaves like a bounded FIFO that drops
   its oldest element on overflow. *)
let prop_matches_model =
  QCheck.Test.make ~name:"ring = bounded FIFO model" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 0 60)
           (make
              (Gen.oneof
                 [ Gen.map (fun x -> `Push x) (Gen.int_range 0 100); Gen.return `Pop ]))))
    (fun (cap, ops) ->
      let q = Psn_queue.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | `Push x ->
              Psn_queue.push q (p x);
              model := !model @ [ x ];
              if List.length !model > cap then model := List.tl !model;
              List.map Psn.to_int (Psn_queue.to_list q) = !model
          | `Pop -> (
              let got = Psn_queue.pop q in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some (p x)))
        ops)

(* Model-based property over the whole API on a list model: [push] with
   overwrite of the oldest entry (counted), [pop_until_greater], and
   [contains].  Small capacities and a long mix of pushes and pops walk
   the head around the ring many times, so every wrap of the one-block
   layout — the push index, the head after a pop or an overwrite, and a
   [contains] scan that runs past the end of the block — is compared
   with the model after each operation. *)
let prop_full_api_matches_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun x -> `Push x) (int_range 0 15));
          (2, map (fun e -> `Pop_until_greater e) (int_range 0 15));
          (2, map (fun x -> `Contains x) (int_range 0 15));
          (1, return `Pop);
        ])
  in
  QCheck.Test.make ~name:"push/pop_until_greater/contains = list model"
    ~count:500
    QCheck.(
      pair (int_range 1 6) (list_of_size (Gen.int_range 0 120) (make op)))
    (fun (cap, ops) ->
      let q = Psn_queue.create ~capacity:cap in
      let model = ref [] and overwrites = ref 0 in
      let rec until_greater e = function
        | [] -> (-1, [])
        | x :: rest ->
            if Psn.gt (p x) (p e) then (x, rest) else until_greater e rest
      in
      List.for_all
        (fun op ->
          let result_ok =
            match op with
            | `Push x ->
                Psn_queue.push q (p x);
                model := !model @ [ x ];
                if List.length !model > cap then begin
                  model := List.tl !model;
                  incr overwrites
                end;
                true
            | `Pop_until_greater e ->
                let want, rest = until_greater e !model in
                model := rest;
                Psn_queue.pop_until_greater q (p e) = want
            | `Contains x -> Psn_queue.contains q (p x) = List.mem x !model
            | `Pop -> (
                let got = Psn_queue.pop q in
                match !model with
                | [] -> got = None
                | x :: rest ->
                    model := rest;
                    got = Some (p x))
          in
          result_ok
          && List.map Psn.to_int (Psn_queue.to_list q) = !model
          && Psn_queue.length q = List.length !model
          && Psn_queue.overwrites q = !overwrites
          && Psn_queue.capacity q = cap)
        ops)

let () =
  Alcotest.run "psn_queue"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_fifo;
          Alcotest.test_case "overwrite oldest" `Quick test_overwrite_oldest;
          Alcotest.test_case "fig4b tPSN walk" `Quick test_pop_until_greater;
          Alcotest.test_case "underflow" `Quick test_pop_until_greater_underflow;
          Alcotest.test_case "empty underflow" `Quick
            test_pop_until_greater_empty;
          Alcotest.test_case "wraparound" `Quick test_pop_until_greater_wraparound;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "capacity one" `Quick test_capacity_one;
          Alcotest.test_case "eviction order" `Quick
            test_overwrite_eviction_order;
          Alcotest.test_case "scan miss on evicted trigger" `Quick
            test_scan_miss_evicted_trigger;
          Alcotest.test_case "capacity rule" `Quick test_capacity_for;
          Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_full_api_matches_model;
        ] );
    ]
