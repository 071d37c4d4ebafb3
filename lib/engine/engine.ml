type handle = Event_queue.handle
type callback = int

let none = Event_queue.none
let null_callback = -1

type t = {
  queue : Event_queue.t;
  mutable now : Sim_time.t;
  mutable stop_requested : bool;
  mutable events_processed : int;
  mutable callbacks : (Obj.t -> unit) array;
  mutable n_callbacks : int;
}

let register_callback t f =
  let cap = Array.length t.callbacks in
  if t.n_callbacks >= cap then begin
    let next = Array.make (2 * cap) f in
    Array.blit t.callbacks 0 next 0 t.n_callbacks;
    t.callbacks <- next
  end;
  t.callbacks.(t.n_callbacks) <- f;
  t.n_callbacks <- t.n_callbacks + 1;
  t.n_callbacks - 1

(* Callback 0, installed by [create]: runs a [unit -> unit] closure
   carried in the event's obj slot — the legacy API rides on the
   closure-free core. *)
let closure_cb = 0

let run_closure obj = (Obj.obj obj : unit -> unit) ()

let create ?(capacity = 256) () =
  let t =
    {
      queue = Event_queue.create ~capacity ();
      now = Sim_time.zero;
      stop_requested = false;
      events_processed = 0;
      callbacks = Array.make 8 run_closure;
      n_callbacks = 0;
    }
  in
  let id = register_callback t run_closure in
  assert (id = closure_cb);
  t

let now t = t.now

let past_error t time =
  invalid_arg
    (Format.asprintf "Engine.schedule_at: time %a is in the past (now %a)"
       Sim_time.pp time Sim_time.pp t.now)

let schedule_call_at t ~time cb ~obj =
  if time < t.now then past_error t time;
  Event_queue.add t.queue ~time ~cb ~obj

let schedule_call t ~delay cb ~obj =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Event_queue.add t.queue ~time:(t.now + delay) ~cb ~obj

let schedule_at t ~time action =
  schedule_call_at t ~time closure_cb ~obj:(Obj.repr action)

let schedule t ~delay action =
  schedule_call t ~delay closure_cb ~obj:(Obj.repr action)

let cancel t h = Event_queue.cancel t.queue h
let is_pending t h = Event_queue.is_pending t.queue h

let run ?until ?max_events t =
  t.stop_requested <- false;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> u | None -> max_int in
  let continue = ref true in
  (* One tranche flag for the whole run: a [ref] inside the loop would
     allocate two minor words per distinct timestamp. *)
  let tranche = ref false in
  while !continue && not t.stop_requested && !budget > 0 do
    if Event_queue.is_empty t.queue then continue := false
    else begin
      let time = Event_queue.peek_time_unsafe t.queue in
      if time > horizon then begin
        t.now <- horizon;
        continue := false
      end
      else begin
        (* Breathe: drain the whole tranche of events at [time] in one
           activation.  The horizon comparison is paid once per distinct
           timestamp instead of once per event; budget and stop are
           still per-event, and events a callback schedules at the
           current time join their own tranche (schedule_* guards keep
           every new time >= now, so the queue minimum never moves
           backwards).  Semantically identical to the one-event loop. *)
        t.now <- time;
        tranche := true;
        while !tranche do
          let s = Event_queue.pop t.queue in
          let cb = Event_queue.slot_cb t.queue s in
          let obj = Event_queue.slot_obj t.queue s in
          Event_queue.release t.queue s;
          (* Lazy deletion: the clock still advances over cancelled
             events (matching the original engine), but they cost no
             budget. *)
          if cb <> Event_queue.cancelled then begin
            t.events_processed <- t.events_processed + 1;
            decr budget;
            (Array.unsafe_get t.callbacks cb) obj
          end;
          if
            t.stop_requested || !budget <= 0
            || Event_queue.is_empty t.queue
            || Event_queue.peek_time_unsafe t.queue <> time
          then tranche := false
        done
      end
    end
  done;
  if Event_queue.is_empty t.queue then
    match until with
    | Some u when u < max_int && u > t.now -> t.now <- u
    | _ -> ()

let check_every = Sim_time.ms 5

let drive t ~finished ~deadline ~settle =
  while (not (finished ())) && t.now < deadline do
    run t ~until:(Sim_time.min deadline (t.now + check_every))
  done;
  if finished () then run t ~until:(t.now + settle)

let stop t = t.stop_requested <- true
let events_processed t = t.events_processed
let pending t = Event_queue.size t.queue

let sched_stats t =
  (Event_queue.wheel_adds t.queue, Event_queue.heap_adds t.queue)
