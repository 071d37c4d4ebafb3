(* The ring-buffer FIFO that replaces Stdlib.Queue on the data path. *)

let test_fifo_order () =
  let q = Fifo.create ~capacity:2 () in
  for i = 1 to 10 do
    Fifo.push q i
  done;
  Alcotest.(check int) "length" 10 (Fifo.length q);
  Alcotest.(check int) "peek" 1 (Fifo.peek q);
  let out = List.init 10 (fun _ -> Fifo.pop q) in
  Alcotest.(check (list int)) "fifo order" (List.init 10 (fun i -> i + 1)) out;
  Alcotest.(check bool) "empty" true (Fifo.is_empty q)

let test_wraparound () =
  (* Interleave pushes and pops so head walks around the ring, then grow
     mid-wrap: the unrolled copy must preserve order. *)
  let q = Fifo.create ~capacity:4 () in
  let out = ref [] in
  for i = 1 to 50 do
    Fifo.push q i;
    Fifo.push q (100 + i);
    out := Fifo.pop q :: !out
  done;
  while not (Fifo.is_empty q) do
    out := Fifo.pop q :: !out
  done;
  (* Same sequence through a reference queue. *)
  let r = Queue.create () in
  let expect = ref [] in
  for i = 1 to 50 do
    Queue.add i r;
    Queue.add (100 + i) r;
    expect := Queue.pop r :: !expect
  done;
  while not (Queue.is_empty r) do
    expect := Queue.pop r :: !expect
  done;
  Alcotest.(check (list int)) "matches Queue" (List.rev !expect)
    (List.rev !out)

let test_iter_clear () =
  let q = Fifo.create ~capacity:2 () in
  List.iter (Fifo.push q) [ 1; 2; 3 ];
  ignore (Fifo.pop q);
  List.iter (Fifo.push q) [ 4; 5 ];
  let seen = ref [] in
  Fifo.iter (fun x -> seen := x :: !seen) q;
  Alcotest.(check (list int)) "iter front-to-back" [ 2; 3; 4; 5 ]
    (List.rev !seen);
  Fifo.clear q;
  Alcotest.(check bool) "cleared" true (Fifo.is_empty q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Fifo.pop q))

let test_drain_push_during () =
  (* Elements pushed by the callback land after the batch and must not
     be drained in the same call. *)
  let q = Fifo.create ~capacity:4 () in
  Fifo.drain q (fun _ -> Alcotest.fail "drain callback on empty ring");
  List.iter (Fifo.push q) [ 1; 2; 3 ];
  let seen = ref [] in
  Fifo.drain q (fun x ->
      seen := x :: !seen;
      if x < 3 then Fifo.push q (10 * x));
  Alcotest.(check (list int)) "only the entry batch" [ 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check int) "requeued stay" 2 (Fifo.length q);
  Alcotest.(check int) "requeued order" 10 (Fifo.pop q);
  Alcotest.(check int) "requeued order 2" 20 (Fifo.pop q)

let () =
  Alcotest.run "fifo"
    [
      ( "ring",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "wraparound growth" `Quick test_wraparound;
          Alcotest.test_case "iter/clear" `Quick test_iter_clear;
          Alcotest.test_case "drain push-during" `Quick test_drain_push_during;
        ] );
    ]
