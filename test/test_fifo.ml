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

(* List model: every observation of the ring equals the list's.  Pushed
   values are distinct and [pop]/[clear] leave stale slots behind, so
   a read past [length] or from a stale slot shows up as a mismatch.
   Small initial capacities make pushes wrap and grow mid-wrap. *)
type op = Push | Pop | Peek | Get of int | Iter | Drain | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Push);
        (3, return Pop);
        (1, return Peek);
        (1, map (fun i -> Get i) (int_range (-1) 8));
        (1, return Iter);
        (1, return Drain);
        (1, return Clear);
      ])

let op_print = function
  | Push -> "push"
  | Pop -> "pop"
  | Peek -> "peek"
  | Get i -> Printf.sprintf "get %d" i
  | Iter -> "iter"
  | Drain -> "drain"
  | Clear -> "clear"

let prop_list_model =
  QCheck.Test.make ~name:"model: ring equals list" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map op_print ops)))
       QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 0 80) op_gen)))
    (fun (capacity, ops) ->
      let q = Fifo.create ~capacity () in
      let next = ref 0 in
      let obs f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let step model op =
        match op with
        | Push ->
            incr next;
            Fifo.push q !next;
            (model @ [ !next ], true)
        | Pop -> (
            match model with
            | [] -> ([], obs (fun () -> Fifo.pop q) = Error "Fifo.pop: empty")
            | x :: rest -> (rest, obs (fun () -> Fifo.pop q) = Ok x))
        | Peek -> (
            ( model,
              match model with
              | [] -> obs (fun () -> Fifo.peek q) = Error "Fifo.peek: empty"
              | x :: _ -> obs (fun () -> Fifo.peek q) = Ok x ))
        | Get i ->
            ( model,
              if i >= 0 && i < List.length model then
                obs (fun () -> Fifo.get q i) = Ok (List.nth model i)
              else
                obs (fun () -> Fifo.get q i)
                = Error "Fifo.get: out of bounds" )
        | Iter ->
            let seen = ref [] in
            Fifo.iter (fun x -> seen := x :: !seen) q;
            (model, List.rev !seen = model)
        | Drain ->
            let seen = ref [] in
            Fifo.drain q (fun x -> seen := x :: !seen);
            ([], List.rev !seen = model)
        | Clear ->
            Fifo.clear q;
            ([], true)
      in
      let rec go model = function
        | [] -> true
        | op :: rest ->
            let model, ok = step model op in
            ok
            && Fifo.length q = List.length model
            && Fifo.is_empty q = (model = [])
            && Fifo.capacity q >= Fifo.length q
            && go model rest
      in
      go [] ops)

let () =
  Alcotest.run "fifo"
    [
      ( "ring",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "wraparound growth" `Quick test_wraparound;
          Alcotest.test_case "iter/clear" `Quick test_iter_clear;
          Alcotest.test_case "drain push-during" `Quick test_drain_push_during;
          QCheck_alcotest.to_alcotest prop_list_model;
        ] );
    ]
