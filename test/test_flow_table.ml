(* The destination-ToR flow table. *)

let conn n = Flow_id.make ~src:1 ~dst:2 ~qpn:n

let test_find_or_add () =
  let t = Flow_table.create ~queue_capacity:16 in
  Alcotest.(check int) "empty" 0 (Flow_table.size t);
  let e1 = Flow_table.find_or_add t (conn 1) in
  let e1' = Flow_table.find_or_add t (conn 1) in
  Alcotest.(check bool) "same entry" true (e1 == e1');
  Alcotest.(check int) "one entry" 1 (Flow_table.size t);
  Alcotest.(check bool) "fresh invalid" false e1.Flow_table.valid;
  Alcotest.(check int) "queue capacity" 16 (Psn_queue.capacity e1.Flow_table.queue)

let test_find_remove () =
  let t = Flow_table.create ~queue_capacity:4 in
  ignore (Flow_table.find_or_add t (conn 1));
  Alcotest.(check bool) "found" true (Flow_table.find t (conn 1) <> None);
  Alcotest.(check bool) "absent" true (Flow_table.find t (conn 2) = None);
  Flow_table.remove t (conn 1);
  Alcotest.(check bool) "removed" true (Flow_table.find t (conn 1) = None)

(* A removed flow's slot is empty again: the next lookup by id makes a
   fresh entry rather than reviving the old one. *)
let test_remove_then_add_id () =
  let t = Flow_table.create ~queue_capacity:4 in
  let flow = conn 7 in
  let id = Flow_id.intern flow in
  let e = Flow_table.find_or_add_id t ~id flow in
  Psn_queue.push e.Flow_table.queue (Psn.of_int 3);
  e.Flow_table.bepsn <- Psn.of_int 3;
  e.Flow_table.valid <- true;
  Flow_table.remove t flow;
  Alcotest.(check int) "gone" 0 (Flow_table.size t);
  Alcotest.(check bool) "not found" true (Flow_table.find t flow = None);
  Flow_table.iter (fun _ _ -> Alcotest.fail "iterated a removed entry") t;
  let e' = Flow_table.find_or_add_id t ~id flow in
  Alcotest.(check bool) "fresh entry" false (e == e');
  Alcotest.(check bool) "fresh invalid" false e'.Flow_table.valid;
  Alcotest.(check int) "fresh queue" 0 (Psn_queue.length e'.Flow_table.queue);
  Alcotest.(check int) "back to one" 1 (Flow_table.size t);
  Alcotest.(check bool) "found again" true
    (match Flow_table.find t flow with Some x -> x == e' | None -> false);
  (* Removing an absent flow changes nothing. *)
  Flow_table.remove t (conn 8);
  Alcotest.(check int) "still one" 1 (Flow_table.size t)

let test_iter () =
  let t = Flow_table.create ~queue_capacity:4 in
  for i = 1 to 5 do
    ignore (Flow_table.find_or_add t (conn i))
  done;
  let count = ref 0 in
  Flow_table.iter (fun _ _ -> incr count) t;
  Alcotest.(check int) "iterated" 5 !count

let test_memory () =
  Alcotest.(check int) "entry bytes (Section 4)" 20 Flow_table.entry_bytes;
  let t = Flow_table.create ~queue_capacity:100 in
  for i = 1 to 3 do
    ignore (Flow_table.find_or_add t (conn i))
  done;
  (* 3 entries x (20 + 100 x 1 byte). *)
  Alcotest.(check int) "memory" (3 * 120) (Flow_table.memory_bytes t)

let test_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Flow_table.create: queue_capacity") (fun () ->
      ignore (Flow_table.create ~queue_capacity:0))

let () =
  Alcotest.run "flow_table"
    [
      ( "table",
        [
          Alcotest.test_case "find_or_add" `Quick test_find_or_add;
          Alcotest.test_case "find/remove" `Quick test_find_remove;
          Alcotest.test_case "remove then find_or_add_id" `Quick
            test_remove_then_add_id;
          Alcotest.test_case "iter" `Quick test_iter;
          Alcotest.test_case "memory" `Quick test_memory;
          Alcotest.test_case "invalid" `Quick test_invalid;
        ] );
    ]
