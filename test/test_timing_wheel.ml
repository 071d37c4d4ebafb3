(* The three-level hierarchical timing wheel (DESIGN.md §15): direct
   unit tests on the wheel itself, a qcheck model of the full
   wheel+overflow-heap queue against a sorted-list oracle with
   epoch-crossing times, and a serial==windowed identity run driving
   wheel drains through [Engine.run ~until] windows. *)

let epoch = 1 lsl 24

(* ---------------- direct wheel tests ---------------- *)

let test_fifo_ties () =
  (* Same-time payloads pop in insertion order: a level-0 slot pins the
     exact timestamp and appends at the tail. *)
  let w = Timing_wheel.create ~capacity:16 () in
  for s = 0 to 4 do
    Alcotest.(check bool) "accepted" true (Timing_wheel.add w ~time:7 s)
  done;
  Alcotest.(check int) "count" 5 (Timing_wheel.count w);
  for s = 0 to 4 do
    Alcotest.(check int) "head time" 7 (Timing_wheel.next_time w);
    Alcotest.(check int) "fifo" s (Timing_wheel.pop w)
  done;
  Alcotest.(check bool) "empty" true (Timing_wheel.is_empty w);
  Alcotest.(check int) "empty next" (-1) (Timing_wheel.next_time w)

let test_past_rejected () =
  let w = Timing_wheel.create ~capacity:4 () in
  ignore (Timing_wheel.add w ~time:1000 0);
  Alcotest.(check int) "advance" 1000 (Timing_wheel.next_time w);
  ignore (Timing_wheel.pop w);
  (* The cursor now sits at 1000: anything behind it is refused and the
     wheel is left untouched. *)
  Alcotest.(check bool) "past refused" false (Timing_wheel.add w ~time:999 1);
  Alcotest.(check int) "nothing filed" 0 (Timing_wheel.count w);
  Alcotest.(check bool) "cursor time ok" true (Timing_wheel.add w ~time:1000 1);
  Alcotest.(check int) "same tick pops" 1000 (Timing_wheel.next_time w);
  Alcotest.(check int) "payload" 1 (Timing_wheel.pop w)

let test_epoch_rejected_and_jump () =
  let w = Timing_wheel.create ~capacity:4 () in
  (* Beyond the cursor's 2^24-tick epoch the wheel refuses: that band
     belongs to the caller's overflow heap. *)
  Alcotest.(check bool) "beyond epoch" false (Timing_wheel.add w ~time:epoch 0);
  Alcotest.(check bool) "last in-epoch tick" true
    (Timing_wheel.add w ~time:(epoch - 1) 0);
  Alcotest.(check int) "served" (epoch - 1) (Timing_wheel.next_time w);
  Alcotest.(check int) "payload" 0 (Timing_wheel.pop w);
  (* Empty wheel: jump migrates the cursor to a far epoch, after which
     that epoch's band is acceptable and the old one is behind. *)
  Timing_wheel.jump w (5 * epoch);
  Alcotest.(check bool) "new epoch ok" true
    (Timing_wheel.add w ~time:((5 * epoch) + 123) 1);
  Alcotest.(check bool) "old epoch behind" false
    (Timing_wheel.add w ~time:(epoch + 1) 2);
  Alcotest.(check int) "served after jump" ((5 * epoch) + 123)
    (Timing_wheel.next_time w);
  Alcotest.(check int) "payload after jump" 1 (Timing_wheel.pop w)

let test_cascade_order () =
  (* Times scattered across all three levels, inserted in a shuffled
     order, must come back fully sorted with FIFO ties — cascades from
     L2 through L1 into L0 preserve both. *)
  let times =
    [ 3; 300; 70_000; 3; 299; 65_536; 16_000_000; 700_000; 0; 300 ]
  in
  let w = Timing_wheel.create ~capacity:(List.length times) () in
  List.iteri
    (fun s time ->
      Alcotest.(check bool) "accepted" true (Timing_wheel.add w ~time s))
    times;
  let sorted =
    List.stable_sort
      (fun (t1, _) (t2, _) -> compare t1 t2)
      (List.mapi (fun s t -> (t, s)) times)
  in
  List.iter
    (fun (t, s) ->
      Alcotest.(check int) "time order" t (Timing_wheel.next_time w);
      Alcotest.(check int) "fifo within time" s (Timing_wheel.pop w))
    sorted;
  Alcotest.(check bool) "drained" true (Timing_wheel.is_empty w)

let test_drain_all () =
  let w = Timing_wheel.create ~capacity:8 () in
  List.iteri
    (fun s t -> ignore (Timing_wheel.add w ~time:t s))
    [ 1; 500; 100_000; 9_000_000 ];
  let seen = ref [] in
  Timing_wheel.drain_all w (fun s -> seen := s :: !seen);
  Alcotest.(check int) "all delivered" 4 (List.length !seen);
  Alcotest.(check (list int)) "payload set" [ 0; 1; 2; 3 ]
    (List.sort compare !seen);
  Alcotest.(check bool) "empty" true (Timing_wheel.is_empty w);
  Alcotest.(check int) "count" 0 (Timing_wheel.count w)

(* ---------------- qcheck model: wheel + overflow heap ----------------- *)

(* The wheel is exercised through Event_queue, whose heap holds what the
   wheel refuses and migrates an epoch down on demand — the model covers
   FIFO ties, cancel-while-slotted (lazy deletion), heap->wheel
   migration across epoch horizons, and schedule-in-past handling in one
   operation stream.  The time generator straddles several epochs so
   pops force [jump] + migration. *)

let add q ~time (v : int) = Event_queue.add q ~time ~cb:0 ~obj:(Obj.repr v)

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

type op = Add of int | Cancel of int | Pop

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (* L0 ties and dense near-future traffic. *)
        (4, map (fun t -> Add t) (int_range 0 30));
        (* Mid band: several L1/L2 slots within one epoch. *)
        (2, map (fun t -> Add t) (int_range 0 3_000_000));
        (* Far band: 5 epochs out, guaranteed heap overflow first. *)
        (2, map (fun t -> Add t) (int_range 0 (5 * epoch)));
        (2, map (fun i -> Cancel i) (int_range 0 50));
        (4, return Pop);
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
    QCheck.Gen.(list_size (int_range 0 150) op_gen)

let prop_model =
  QCheck.Test.make
    ~name:"model: wheel+heap equals sorted-list oracle across epochs"
    ~count:300 ops_arb (fun ops ->
      let q = Event_queue.create ~capacity:2 () in
      let model = ref [] in
      let handles = Hashtbl.create 16 in
      let next_id = ref 0 in
      let ok = ref true in
      let model_pop () =
        let live = List.filter (fun (_, _, c) -> not !c) (List.rev !model) in
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
              match Hashtbl.find_opt handles id with
              | None -> ()
              | Some h ->
                  Event_queue.cancel q h;
                  List.iter (fun (i, _, c) -> if i = id then c := true) !model)
          | Pop -> if pop q <> model_pop () then ok := false)
        ops;
      let rec drain_both () =
        let got = pop q in
        let want = model_pop () in
        if got <> want then ok := false else if got <> None then drain_both ()
      in
      drain_both ();
      Hashtbl.iter
        (fun _ h -> if Event_queue.is_pending q h then ok := false)
        handles;
      !ok)

(* ---------------- qcheck model: engine-shaped schedules ------------- *)

(* The engine's own pattern: pop the head event, then schedule at
   [now + d].  The delays straddle the wheel's edges — 1023/1024/1025
   ticks (level 0 holds the cursor's 1024-tick window and the next),
   the 2^18-tick chunk edge (level 2 -> level 1 on fill-ahead) and the
   last window of the 2^24-tick epoch (overflow heap and migration) —
   so events sit on both sides of each edge while the cursor crosses
   it.  Cancels leave dead events for the pops to skip. *)

(* A delay, or an offset from the next multiple of [1 lsl shift]. *)
type target = Delay of int | Edge of int * int

type sched_op = Schedule of target | Step of target | Drop of int

let resolve now = function
  | Delay d -> now + d
  | Edge (shift, k) -> max now ((((now lsr shift) + 1) lsl shift) + k)

let target_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun d -> Delay d)
            (oneof
               [
                 int_range 0 30; int_range 512 1023; int_range 1021 1027;
                 int_range 2045 2051;
               ]) );
        (2, map (fun k -> Edge (10, k)) (int_range (-3) 3));
        (2, map (fun k -> Edge (18, k)) (int_range (-1500) 1500));
        (1, map (fun k -> Edge (24, k)) (int_range (-2100) 1100));
      ])

let sched_ops_arb =
  let pp = function
    | Delay d -> Printf.sprintf "+%d" d
    | Edge (shift, k) -> Printf.sprintf "edge%d%+d" shift k
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Schedule t -> "add " ^ pp t
             | Step t -> "pop, add " ^ pp t
             | Drop i -> Printf.sprintf "cancel #%d" i)
           ops))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (frequency
           [
             (2, map (fun t -> Schedule t) target_gen);
             (5, map (fun t -> Step t) target_gen);
             (1, map (fun i -> Drop i) (int_range 0 60));
           ]))

let prop_engine_shaped =
  QCheck.Test.make
    ~name:"engine-shaped: pop then add at now+d equals the oracle"
    ~count:500 sched_ops_arb (fun ops ->
      let q = Event_queue.create ~capacity:2 () in
      (* Live events (time, id), newest first: the oracle pops the
         earliest time, oldest first within it. *)
      let model = ref [] in
      let handles = Hashtbl.create 16 in
      let now = ref 0 and next_id = ref 0 and ok = ref true in
      let model_pop () =
        match
          List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
            (List.rev !model)
        with
        | [] -> None
        | ((_, id) as head) :: _ ->
            model := List.filter (fun (_, i) -> i <> id) !model;
            Some head
      in
      let schedule target =
        let time = resolve !now target and id = !next_id in
        incr next_id;
        Hashtbl.replace handles id (add q ~time id);
        model := (time, id) :: !model
      in
      let step () =
        let got = pop q in
        if got <> model_pop () then ok := false;
        Option.iter (fun (t, _) -> now := t) got
      in
      List.iter
        (function
          | Schedule target -> schedule target
          | Step target ->
              step ();
              schedule target
          | Drop id ->
              Option.iter
                (fun h ->
                  Event_queue.cancel q h;
                  model := List.filter (fun (_, i) -> i <> id) !model)
                (Hashtbl.find_opt handles id))
        ops;
      while !ok && not (Event_queue.is_empty q && !model = []) do
        step ()
      done;
      !ok)

(* ---------------- serial == windowed ------------------------------- *)

(* One engine advanced (a) in a single [run ~until:horizon] and (b) in
   [Engine.run ~until] windows of at most [lookahead], with external
   arrivals scheduled between windows, each at least one window ahead.
   Timer events land on even ticks and externals on odd ticks, so the
   merged (time) order is unique and the fire logs must be identical —
   even though the windowed run schedules externals mid-flight, behind
   the wheel cursor that earlier windows advanced (wheel drains + epoch
   jumps interleave with between-window adds), while the serial run
   schedules them all upfront into the overflow heap. *)

let horizon_t = 60_000_000 (* ~3.5 epochs *)
let lookahead = 500_000

let external_times =
  (* Odd start, even step: every arrival tick is odd and unique, and the
     first lies beyond the first window (externals are scheduled between
     windows, one lookahead ahead). *)
  Array.init 400 (fun j -> 1_000_001 + (j * 111_112))

let build_timers eng log =
  let timers = 8 in
  for k = 0 to timers - 1 do
    let fires = ref 0 in
    let rec tick () =
      log := (Engine.now eng, k) :: !log;
      incr fires;
      let d =
        if !fires land 7 = 0 then
          (* Far-future reschedule: overflows to the heap, migrates back
             into the wheel when its epoch arrives. *)
          epoch + (2 * ((k * 9973) + 1))
        else 2 * (1 + (((k * 31) + !fires) land 8191))
      in
      ignore (Engine.schedule eng ~delay:(Sim_time.ns d) tick)
    in
    ignore (Engine.schedule eng ~delay:(Sim_time.ns (2 * k)) tick)
  done

let run_serial () =
  let eng = Engine.create () in
  let log = ref [] in
  build_timers eng log;
  Array.iteri
    (fun j t ->
      ignore (Engine.schedule_at eng ~time:t (fun () ->
          log := (Engine.now eng, 1000 + j) :: !log)))
    external_times;
  Engine.run eng ~until:horizon_t;
  List.rev !log

let run_windowed () =
  let eng = Engine.create () in
  let log = ref [] in
  build_timers eng log;
  let idx = ref 0 in
  let schedule_due ~upto =
    (* Everything due within the next window must be filed now; arrival
       ticks are strictly beyond [upto]. *)
    while
      !idx < Array.length external_times
      && external_times.(!idx) <= upto + lookahead
    do
      let j = !idx in
      incr idx;
      ignore (Engine.schedule_at eng ~time:external_times.(j) (fun () ->
          log := (Engine.now eng, 1000 + j) :: !log))
    done
  in
  let t = ref 0 in
  while !t < horizon_t do
    let until = Sim_time.min horizon_t (!t + lookahead) in
    Engine.run eng ~until;
    schedule_due ~upto:until;
    t := until
  done;
  List.rev !log

let test_serial_eq_windowed () =
  let serial = run_serial () in
  let windowed = run_windowed () in
  Alcotest.(check int) "same event count" (List.length serial)
    (List.length windowed);
  Alcotest.(check bool) "identical fire logs" true (serial = windowed);
  (* Sanity: the run is long enough to cross epochs and fire externals. *)
  Alcotest.(check bool) "externals fired" true
    (List.exists (fun (_, id) -> id >= 1000) serial);
  Alcotest.(check bool) "spans epochs" true
    (List.exists (fun (t, _) -> t > 2 * epoch) serial)

let () =
  Alcotest.run "timing_wheel"
    [
      ( "wheel",
        [
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "past rejected" `Quick test_past_rejected;
          Alcotest.test_case "epoch rejected + jump" `Quick
            test_epoch_rejected_and_jump;
          Alcotest.test_case "cascade order" `Quick test_cascade_order;
          Alcotest.test_case "drain_all" `Quick test_drain_all;
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_engine_shaped;
        ] );
      ( "until",
        [
          Alcotest.test_case "serial == windowed" `Quick
            test_serial_eq_windowed;
        ] );
    ]
