(* The SoA binary-heap event queue: ordering, stability, preallocation,
   handle lifecycle, and a qcheck model test against a sorted-list
   reference oracle. *)

(* Events carry their test id in the [obj] slot; [cb] is unused here
   (the engine owns its interpretation). *)
let add q ~time (v : int) = Event_queue.add q ~time ~cb:0 ~obj:(Obj.repr v)

(* Drain the next live event as [Some (time, value)], skipping cancelled
   entries the way [Engine.run] does. *)
let rec pop q =
  if Event_queue.is_empty q then None
  else begin
    let time = Event_queue.peek_time_unsafe q in
    let s = Event_queue.pop q in
    let live = Event_queue.slot_cb q s <> Event_queue.cancelled in
    let v : int = Obj.obj (Event_queue.slot_obj q s) in
    Event_queue.release q s;
    if live then Some (time, v) else pop q
  end

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let test_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "size" 0 (Event_queue.size q);
  Alcotest.(check bool) "peek none" true (Event_queue.peek_time q = None)

let test_ordering () =
  let q = Event_queue.create () in
  List.iter (fun t -> ignore (add q ~time:t t)) [ 5; 1; 9; 3; 7 ];
  let order = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] order

let test_stability () =
  (* Same-time events pop in insertion order. *)
  let q = Event_queue.create () in
  List.iter (fun v -> ignore (add q ~time:10 v)) [ 1; 2; 3; 4; 5 ];
  ignore (add q ~time:5 0);
  let order = List.map snd (drain q) in
  Alcotest.(check (list int)) "fifo within time" [ 0; 1; 2; 3; 4; 5 ] order

let test_interleaved () =
  let q = Event_queue.create () in
  ignore (add q ~time:3 1);
  Alcotest.(check bool) "peek 3" true (Event_queue.peek_time q = Some 3);
  ignore (add q ~time:1 2);
  Alcotest.(check bool) "peek 1" true (Event_queue.peek_time q = Some 1);
  Alcotest.(check bool) "pop b" true (pop q = Some (1, 2));
  ignore (add q ~time:2 3);
  Alcotest.(check bool) "pop c" true (pop q = Some (2, 3));
  Alcotest.(check bool) "pop a" true (pop q = Some (3, 1))

let test_capacity_honored () =
  (* The preallocation hint is honored for the overflow heap: no growth
     below it, doubling beyond it.  Times beyond the wheel's current
     2^24-tick epoch overflow to the heap, so far-future adds are what
     exercise its growth. *)
  let q = Event_queue.create ~capacity:128 () in
  Alcotest.(check int) "preallocated" 128 (Event_queue.capacity q);
  for i = 1 to 128 do
    ignore (add q ~time:(100_000_000 + i) i)
  done;
  Alcotest.(check int) "no growth at hint" 128 (Event_queue.capacity q);
  ignore (add q ~time:99_999_999 0);
  Alcotest.(check int) "doubled past hint" 256 (Event_queue.capacity q);
  Alcotest.(check bool) "still ordered" true (pop q = Some (99_999_999, 0))

let test_growth () =
  let q = Event_queue.create ~capacity:4 () in
  for i = 1000 downto 1 do
    ignore (add q ~time:i i)
  done;
  Alcotest.(check int) "size" 1000 (Event_queue.size q);
  List.iteri
    (fun i (t, v) ->
      Alcotest.(check int) "time" (i + 1) t;
      Alcotest.(check int) "value" (i + 1) v)
    (drain q)

let test_cancel_while_queued () =
  let q = Event_queue.create () in
  let h1 = add q ~time:1 1 in
  let h2 = add q ~time:2 2 in
  let h3 = add q ~time:3 3 in
  Alcotest.(check bool) "h2 pending" true (Event_queue.is_pending q h2);
  Event_queue.cancel q h2;
  Alcotest.(check bool) "h2 cancelled" false (Event_queue.is_pending q h2);
  Alcotest.(check bool) "h1 unaffected" true (Event_queue.is_pending q h1);
  Alcotest.(check bool) "h3 unaffected" true (Event_queue.is_pending q h3);
  (* Cancelled events still occupy the heap (lazy deletion)... *)
  Alcotest.(check int) "still queued" 3 (Event_queue.size q);
  (* ...but never surface. *)
  Alcotest.(check (list (pair int int))) "skipped" [ (1, 1); (3, 3) ] (drain q)

let test_stale_handle_no_resurrection () =
  (* A handle from a dropped event must never affect the slot's next
     occupant. *)
  let q = Event_queue.create ~capacity:1 () in
  let h1 = add q ~time:1 1 in
  Event_queue.cancel q h1;
  Alcotest.(check (list (pair int int))) "e1 gone" [] (drain q);
  (* The slot is recycled for e2; h1 is stale. *)
  let h2 = add q ~time:2 2 in
  Event_queue.cancel q h1;
  Alcotest.(check bool) "stale cancel is a no-op" true
    (Event_queue.is_pending q h2);
  Alcotest.(check bool) "stale not pending" false (Event_queue.is_pending q h1);
  Event_queue.cancel q Event_queue.none;
  Alcotest.(check bool) "none not pending" false
    (Event_queue.is_pending q Event_queue.none);
  Alcotest.(check (list (pair int int))) "e2 delivered" [ (2, 2) ] (drain q);
  Alcotest.(check bool) "fired handle dead" false (Event_queue.is_pending q h2)

let test_clear () =
  let q = Event_queue.create () in
  let h = add q ~time:1 1 in
  ignore (add q ~time:2 2);
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  Alcotest.(check bool) "handles dead" false (Event_queue.is_pending q h);
  (* Slots were recycled; the queue is fully reusable. *)
  ignore (add q ~time:3 3);
  Alcotest.(check (list (pair int int))) "reusable" [ (3, 3) ] (drain q)

(* --- Model test ------------------------------------------------------- *)

(* Reference oracle: a sorted association list keyed on (time, insertion
   index), with cancellation by id.  The queue must pop exactly the
   oracle's live events in the oracle's order, through any interleaving
   of adds, cancels and pops — including across the preallocation
   boundary (capacity 2) so slot recycling and heap growth are both
   exercised. *)

type op = Add of int | Cancel of int | Pop

let op_gen =
  (* Small times stress the wheel's level-0 band and FIFO ties; the
     large band straddles several 65536-tick chunks so adds overflow to
     the heap and migrate back down across pops. *)
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Add t) (int_range 0 30));
        (2, map (fun t -> Add t) (int_range 0 300_000));
        (2, map (fun i -> Cancel i) (int_range 0 40));
        (3, return Pop);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add t -> Printf.sprintf "add %d" t
             | Cancel i -> Printf.sprintf "cancel #%d" i
             | Pop -> "pop")
           ops))
    QCheck.Gen.(list_size (int_range 0 120) op_gen)

let prop_model =
  QCheck.Test.make ~name:"model: queue equals sorted-list oracle" ~count:300
    ops_arb (fun ops ->
      let q = Event_queue.create ~capacity:2 () in
      (* Model: per-event (id, time, cancelled) in insertion order, minus
         popped events.  Insertion order doubles as the seq tie-break. *)
      let model = ref [] in
      let handles = Hashtbl.create 16 in
      let next_id = ref 0 in
      let ok = ref true in
      let model_pop () =
        (* Earliest live event by (time, insertion id); drop every
           cancelled event that sorts before it, mirroring lazy
           deletion. *)
        let live =
          List.filter (fun (_, _, c) -> not !c) (List.rev !model)
        in
        match
          List.stable_sort (fun (_, t1, _) (_, t2, _) -> compare t1 t2) live
        with
        | [] -> None
        | (id, t, _) :: _ ->
            model := List.filter (fun (i, _, _) -> i <> id) !model;
            Some (t, id)
      in
      List.iter
        (fun op ->
          match op with
          | Add t ->
              let id = !next_id in
              incr next_id;
              let h = add q ~time:t id in
              Hashtbl.replace handles id h;
              model := (id, t, ref false) :: !model
          | Cancel id -> (
              (* Cancel a (possibly stale or unknown) handle. *)
              match Hashtbl.find_opt handles id with
              | None -> ()
              | Some h ->
                  Event_queue.cancel q h;
                  List.iter
                    (fun (i, _, c) -> if i = id then c := true)
                    !model)
          | Pop ->
              let got = pop q in
              let want = model_pop () in
              let want =
                match want with None -> None | Some (t, id) -> Some (t, id)
              in
              if got <> want then ok := false)
        ops;
      (* Drain both to the end: total order must agree. *)
      let rec drain_both () =
        let got = pop q in
        let want = model_pop () in
        if got <> want then ok := false
        else if got <> None then drain_both ()
      in
      drain_both ();
      (* Every surviving handle must be dead after the drain. *)
      Hashtbl.iter
        (fun _ h -> if Event_queue.is_pending q h then ok := false)
        handles;
      !ok)

(* A freed slot keeps its old payload until [add] overwrites it; [add]
   skips the store only when the payload is the same.  Recycle one slot
   from a block payload to a unit payload and back: each pop must see
   exactly the payload its own [add] passed. *)
let test_recycled_slot_payload () =
  let q = Event_queue.create ~capacity:4 () in
  let pkt = Obj.repr (ref 42) and other = Obj.repr (ref 7) in
  let unit_obj = Obj.repr () in
  let round time obj =
    ignore (Event_queue.add q ~time ~cb:0 ~obj);
    let s = Event_queue.pop q in
    let got = Event_queue.slot_obj q s in
    Event_queue.release q s;
    (s, got)
  in
  let s0, got = round 1 pkt in
  Alcotest.(check bool) "block payload" true (got == pkt);
  let s1, got = round 2 unit_obj in
  Alcotest.(check int) "LIFO freelist reuses the slot" s0 s1;
  Alcotest.(check bool) "unit payload delivers ()" true (got == unit_obj);
  Alcotest.(check unit) "as unit" () (Obj.obj got);
  let _, got = round 3 pkt in
  Alcotest.(check bool) "block again" true (got == pkt);
  let _, got = round 4 pkt in
  Alcotest.(check bool) "same block, store skipped" true (got == pkt);
  let _, got = round 5 other in
  Alcotest.(check bool) "a different block" true (got == other)

let () =
  Alcotest.run "event_queue"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "stability" `Quick test_stability;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "capacity honored" `Quick test_capacity_honored;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "cancel while queued" `Quick
            test_cancel_while_queued;
          Alcotest.test_case "stale handles" `Quick
            test_stale_handle_no_resurrection;
          Alcotest.test_case "clear" `Quick test_clear;
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "recycled slot payload" `Quick
            test_recycled_slot_payload;
        ] );
    ]
