(* The discrete-event driver: ordering, cancellation, horizons. *)

let test_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now eng) :: !log in
  ignore (Engine.schedule eng ~delay:30 (note "c"));
  ignore (Engine.schedule eng ~delay:10 (note "a"));
  ignore (Engine.schedule eng ~delay:20 (note "b"));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "execution order"
    [ ("a", 10); ("b", 20); ("c", 30) ]
    (List.rev !log)

let test_nested_schedule () =
  let eng = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule eng ~delay:10 (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Engine.schedule eng ~delay:5 (fun () ->
                fired := "inner" :: !fired))));
  Engine.run eng;
  Alcotest.(check (list string)) "nested" [ "inner"; "outer" ] !fired;
  Alcotest.(check int) "clock at last event" 15 (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule eng ~delay:5 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:10 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending eng h);
  Engine.cancel eng h;
  Alcotest.(check bool) "not pending" false (Engine.is_pending eng h);
  Engine.run eng;
  Alcotest.(check bool) "did not fire" false !fired;
  (* Double cancel is harmless. *)
  Engine.cancel eng h

let test_horizon () =
  let eng = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule eng ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule eng ~delay:30 (fun () -> fired := 30 :: !fired));
  Engine.run eng ~until:20;
  Alcotest.(check (list int)) "only first fired" [ 10 ] !fired;
  Alcotest.(check int) "clock at horizon" 20 (Engine.now eng);
  Alcotest.(check int) "one pending" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list int)) "second fires later" [ 30; 10 ] !fired

let test_horizon_inclusive () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule eng ~delay:20 (fun () -> fired := true));
  Engine.run eng ~until:20;
  Alcotest.(check bool) "event at horizon fires" true !fired

let test_max_events () =
  let eng = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule eng ~delay:1 (fun () -> incr count))
  done;
  Engine.run eng ~max_events:3;
  Alcotest.(check int) "budget respected" 3 !count

let test_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule eng ~delay:1 (fun () ->
           incr count;
           if !count = 2 then Engine.stop eng))
  done;
  Engine.run eng;
  Alcotest.(check int) "stopped after request" 2 !count

let test_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:10 (fun () -> ()));
  Engine.run eng;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule eng ~delay:(-1) (fun () -> ())))

let test_events_processed () =
  let eng = Engine.create () in
  for _ = 1 to 5 do
    ignore (Engine.schedule eng ~delay:1 (fun () -> ()))
  done;
  let h = Engine.schedule eng ~delay:1 (fun () -> ()) in
  Engine.cancel eng h;
  Engine.run eng;
  Alcotest.(check int) "cancelled not counted" 5 (Engine.events_processed eng)

let test_schedule_call () =
  (* The closure-free path: a registered callback receives the event's
     [obj] payload, and handles interoperate with cancel/is_pending. *)
  let eng = Engine.create ~capacity:4 () in
  let log = ref [] in
  let cb =
    Engine.register_callback eng (fun obj ->
        log := (Obj.obj obj : int * string) :: !log)
  in
  ignore (Engine.schedule_call eng ~delay:5 cb ~obj:(Obj.repr (1, "x")));
  let h = Engine.schedule_call eng ~delay:3 cb ~obj:(Obj.repr (7, "y")) in
  Alcotest.(check bool) "call pending" true (Engine.is_pending eng h);
  Alcotest.(check bool) "none is never pending" false
    (Engine.is_pending eng Engine.none);
  Engine.cancel eng Engine.none;
  Engine.run eng;
  Alcotest.(check bool) "fired handle dead" false (Engine.is_pending eng h);
  Alcotest.(check (list (pair int string)))
    "payloads in time order"
    [ (7, "y"); (1, "x") ]
    (List.rev !log)

(* ------------- qcheck: chunked runs equal one run ------------------- *)

(* An event, scheduled [delay] after its parent fired (or after time 0),
   that on firing schedules its children and cancels the handle of the
   [cancel]-th event scheduled so far (mod the count).  Delays cover
   same-time nesting (0), the wheel's dense band and far-future heap
   events several 2^24-tick epochs out. *)
type ev = { delay : int; kids : ev list; cancel : int option }

let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (4, int_range 1 30);
        (2, int_range 0 3_000_000);
        (1, int_range 0 (5 lsl 24));
      ])

let rec ev_gen depth =
  QCheck.Gen.(
    map3
      (fun delay kids cancel -> { delay; kids; cancel })
      delay_gen
      (if depth = 0 then return []
       else list_size (int_range 0 3) (ev_gen (depth - 1)))
      (opt ~ratio:0.2 (int_range 0 1000)))

(* Fire the whole spec under [run], returning the (time, id) firing
   sequence, [events_processed] and the final clock.  Ids are issued in
   scheduling order, so equal runs issue equal ids.  Even ids go through
   a registered callback with the event as payload, odd ids through the
   closure API. *)
let fire_all spec ~run =
  let eng = Engine.create ~capacity:4 () in
  let log = ref [] and handles = ref [||] and n = ref 0 in
  let rec schedule ev =
    let id = !n in
    incr n;
    let h =
      if id land 1 = 0 then
        Engine.schedule_call eng ~delay:ev.delay !cb ~obj:(Obj.repr (id, ev))
      else Engine.schedule eng ~delay:ev.delay (fun () -> fire id ev)
    in
    handles := Array.append !handles [| h |]
  and fire id ev =
    log := (Engine.now eng, id) :: !log;
    List.iter schedule ev.kids;
    Option.iter
      (fun k -> Engine.cancel eng !handles.(k mod Array.length !handles))
      ev.cancel
  and cb = ref Engine.null_callback in
  cb :=
    Engine.register_callback eng (fun obj ->
        let id, ev = (Obj.obj obj : int * ev) in
        fire id ev);
  List.iter schedule spec;
  run eng;
  (List.rev !log, Engine.events_processed eng, Engine.now eng)

let prop_chunked_run =
  QCheck.Test.make ~name:"run ~max_events:k chunks equal one run" ~count:300
    QCheck.(
      pair (int_range 1 7)
        (make
           ~print:(fun spec -> Printf.sprintf "%d roots" (List.length spec))
           Gen.(list_size (int_range 1 12) (ev_gen 2))))
    (fun (k, spec) ->
      let whole = fire_all spec ~run:(fun eng -> Engine.run eng) in
      let chunked =
        fire_all spec ~run:(fun eng ->
            while Engine.pending eng > 0 do
              Engine.run ~max_events:k eng
            done)
      in
      whole = chunked)

let test_idle_horizon_advances_clock () =
  let eng = Engine.create () in
  Engine.run eng ~until:100;
  Alcotest.(check int) "clock moves to horizon" 100 (Engine.now eng)

let () =
  Alcotest.run "engine"
    [
      ( "scheduling",
        [
          Alcotest.test_case "order" `Quick test_order;
          Alcotest.test_case "nested" `Quick test_nested_schedule;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_cancel;
        ] );
      ( "run control",
        [
          Alcotest.test_case "horizon" `Quick test_horizon;
          Alcotest.test_case "horizon inclusive" `Quick test_horizon_inclusive;
          Alcotest.test_case "max_events" `Quick test_max_events;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "negative delay" `Quick test_past_rejected;
          Alcotest.test_case "events_processed" `Quick test_events_processed;
          Alcotest.test_case "schedule_call" `Quick test_schedule_call;
          Alcotest.test_case "idle horizon" `Quick test_idle_horizon_advances_clock;
          QCheck_alcotest.to_alcotest prop_chunked_run;
        ] );
    ]
