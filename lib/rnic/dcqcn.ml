type config = {
  g : float;
  rai : Rate.t;
  rhai : Rate.t;
  alpha_timer : Sim_time.t;
  rate_decrease_interval : Sim_time.t;
  rate_increase_timer : Sim_time.t;
  byte_counter : int;
  fast_recovery_rounds : int;
  nack_slow_start : bool;
  nack_factor : float;
  nack_decrease_interval : Sim_time.t;
}

let default =
  {
    g = 1. /. 256.;
    rai = Rate.gbps 0.04;
    rhai = Rate.gbps 0.4;
    alpha_timer = Sim_time.us 55;
    rate_decrease_interval = Sim_time.us 4;
    rate_increase_timer = Sim_time.us 900;
    byte_counter = 10_000_000;
    fast_recovery_rounds = 5;
    nack_slow_start = true;
    nack_factor = 0.5;
    nack_decrease_interval = Sim_time.us 300;
  }

let with_ti_td cfg ~ti_us ~td_us =
  {
    cfg with
    rate_increase_timer = Sim_time.us_f ti_us;
    rate_decrease_interval = Sim_time.us_f td_us;
  }

type t = {
  engine : Engine.t;
  conn : Flow_id.t option;  (* telemetry label only *)
  cfg : config;
  line_rate : Rate.t;
  mutable rc : Rate.t;
  mutable rt : Rate.t;
  (* One-element array rather than a mutable field: in this mixed record
     a [mutable alpha : float] is a boxed float, so the 55µs decay timer
     — the single most frequent event in a converged run — would
     allocate on every store.  Flat float-array storage keeps the IEEE
     arithmetic (and hence every frozen trace) bit-identical while
     making the store allocation-free. *)
  alpha : float array;
  mutable last_decrease : Sim_time.t;
  mutable last_nack_decrease : Sim_time.t;
  mutable stage : int;
  mutable bytes_acc : int;
  mutable increase_timer : Engine.handle;
  mutable alpha_handle : Engine.handle;
  mutable decreases : int;
  (* Closure-free timers: registered once, rescheduled forever. *)
  mutable cb_increase : Engine.callback;
  mutable cb_alpha : Engine.callback;
}

let rate t = t.rc
let target t = t.rt
let alpha t = t.alpha.(0)
let decreases t = t.decreases

let at_line_rate t = Rate.compare t.rc t.line_rate >= 0

(* Only the rate-increase loop parks on full recovery; alpha keeps
   decaying (it terminates itself once negligible), so a long quiet
   period leaves the next congestion cut appropriately gentle. *)
let stop_increase_timer t =
  Engine.cancel t.engine t.increase_timer;
  t.increase_timer <- Engine.none

(* One rate-increase event (from the TI timer or the byte counter). *)
let rec increase_event t =
  t.stage <- t.stage + 1;
  let f = t.cfg.fast_recovery_rounds in
  if t.stage <= f then t.rc <- Rate.avg t.rc t.rt
  else if t.stage <= 2 * f then begin
    t.rt <- Rate.clamp (Rate.add t.rt t.cfg.rai) ~max:t.line_rate;
    t.rc <- Rate.avg t.rc t.rt
  end
  else begin
    t.rt <- Rate.clamp (Rate.add t.rt t.cfg.rhai) ~max:t.line_rate;
    t.rc <- Rate.avg t.rc t.rt
  end;
  t.rc <- Rate.clamp t.rc ~max:t.line_rate;
  if Rate.to_bps t.rc >= 0.999 *. Rate.to_bps t.line_rate then begin
    (* Fully recovered; park the control loop until the next signal. *)
    t.rc <- t.line_rate;
    t.rt <- t.line_rate;
    stop_increase_timer t
  end
  else reschedule_increase t

and reschedule_increase t =
  Engine.cancel t.engine t.increase_timer;
  t.increase_timer <-
    Engine.schedule_call t.engine ~delay:t.cfg.rate_increase_timer
      t.cb_increase ~obj:(Obj.repr ())

and alpha_decay t =
  let a = (1. -. t.cfg.g) *. Array.unsafe_get t.alpha 0 in
  Array.unsafe_set t.alpha 0 a;
  if a > 1e-4 then reschedule_alpha t else t.alpha_handle <- Engine.none

and reschedule_alpha t =
  Engine.cancel t.engine t.alpha_handle;
  t.alpha_handle <-
    Engine.schedule_call t.engine ~delay:t.cfg.alpha_timer t.cb_alpha
      ~obj:(Obj.repr ())

let create ~engine ?conn ~config ~line_rate () =
  let t =
  {
    engine;
    conn;
    cfg = config;
    line_rate;
    rc = line_rate;
    rt = line_rate;
    alpha = [| 1. |];
    last_decrease = Sim_time.ns (-1_000_000_000);
    last_nack_decrease = Sim_time.ns (-1_000_000_000);
    stage = 0;
    bytes_acc = 0;
    increase_timer = Engine.none;
    alpha_handle = Engine.none;
    decreases = 0;
    cb_increase = Engine.null_callback;
    cb_alpha = Engine.null_callback;
  }
  in
  t.cb_increase <-
    Engine.register_callback engine (fun _ -> increase_event t);
  t.cb_alpha <- Engine.register_callback engine (fun _ -> alpha_decay t);
  t


let tm_decrease t cause =
  if Telemetry.enabled () then begin
    let label =
      match cause with
      | Event.Cnp -> "cnp"
      | Event.Nack -> "nack"
      | Event.Timeout -> "timeout"
    in
    Telemetry.incr_counter ~labels:[ ("cause", label) ] "dcqcn_rate_decreases";
    match t.conn with
    | None -> ()
    | Some conn ->
        Telemetry.record ~time:(Engine.now t.engine)
          (Event.Rate_change { conn; gbps = Rate.to_gbps t.rc; cause })
  end

let decrease ?(gate = `Td) t ~factor =
  let now = Engine.now t.engine in
  let gate_ok =
    match gate with
    | `Td -> Sim_time.diff now t.last_decrease >= t.cfg.rate_decrease_interval
    | `Nack ->
        Sim_time.diff now t.last_nack_decrease
        >= t.cfg.nack_decrease_interval
  in
  if gate_ok then begin
    t.last_decrease <- now;
    (match gate with
    | `Nack -> t.last_nack_decrease <- now
    | `Td -> ());
    t.decreases <- t.decreases + 1;
    t.alpha.(0) <- ((1. -. t.cfg.g) *. t.alpha.(0)) +. t.cfg.g;
    t.rt <- t.rc;
    t.rc <- Rate.scale t.rc factor;
    t.stage <- 0;
    t.bytes_acc <- 0;
    tm_decrease t (match gate with `Td -> Event.Cnp | `Nack -> Event.Nack);
    reschedule_increase t;
    reschedule_alpha t
  end

let on_cnp t = decrease t ~factor:(1. -. (t.alpha.(0) /. 2.))

let on_nack t =
  if t.cfg.nack_slow_start then decrease ~gate:`Nack t ~factor:t.cfg.nack_factor

let on_timeout t =
  t.last_decrease <- Engine.now t.engine;
  t.decreases <- t.decreases + 1;
  t.rt <- t.rc;
  t.rc <- Rate.min_rate;
  t.stage <- 0;
  t.bytes_acc <- 0;
  tm_decrease t Event.Timeout;
  reschedule_increase t;
  reschedule_alpha t

let on_bytes_sent t b =
  if t.cfg.byte_counter < max_int && not (at_line_rate t) then begin
    t.bytes_acc <- t.bytes_acc + b;
    if t.bytes_acc >= t.cfg.byte_counter then begin
      t.bytes_acc <- t.bytes_acc - t.cfg.byte_counter;
      increase_event t
    end
  end
