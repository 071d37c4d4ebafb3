type config = {
  rate_decrease_interval : Sim_time.t;
  rate_increase_timer : Sim_time.t;
  nack_slow_start : bool;
}

(* The rate machine's fixed constants: the paper sweeps only TI and TD
   (dcqcn.mli documents each value). *)
let g = 1. /. 256.
let rai = Rate.gbps 0.04
let rhai = Rate.gbps 0.4
let alpha_timer = Sim_time.us 55
let byte_counter = 10_000_000
let fast_recovery_rounds = 5
let nack_factor = 0.5
let nack_decrease_interval = Sim_time.us 300

let default =
  {
    rate_decrease_interval = Sim_time.us 4;
    rate_increase_timer = Sim_time.us 900;
    nack_slow_start = true;
  }

let with_ti_td cfg ~ti_us ~td_us =
  {
    cfg with
    rate_increase_timer = Sim_time.us_f ti_us;
    rate_decrease_interval = Sim_time.us_f td_us;
  }

type state = {
  mutable rc : Rate.t;  (* current rate *)
  mutable rt : Rate.t;  (* target rate *)
  mutable alpha : float;
}

type t = {
  engine : Engine.t;
  conn : Flow_id.t option;  (* telemetry label only *)
  cfg : config;
  line_rate : Rate.t;
  (* The float state lives in its own all-float record, which OCaml
     stores flat: a [mutable] float field of this mixed record would be
     boxed, so every rate change and every 55µs alpha decay would
     allocate. *)
  st : state;
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

let rate t = t.st.rc
let target t = t.st.rt
let alpha t = t.st.alpha
let decreases t = t.decreases

let at_line_rate t = Rate.compare t.st.rc t.line_rate >= 0

(* Only the rate-increase loop parks on full recovery; alpha keeps
   decaying (it terminates itself once negligible), so a long quiet
   period leaves the next congestion cut appropriately gentle. *)
let stop_increase_timer t =
  Engine.cancel t.engine t.increase_timer;
  t.increase_timer <- Engine.none

(* One rate-increase event (from the TI timer or the byte counter). *)
let rec increase_event t =
  let st = t.st in
  t.stage <- t.stage + 1;
  let f = fast_recovery_rounds in
  if t.stage <= f then st.rc <- Rate.avg st.rc st.rt
  else if t.stage <= 2 * f then begin
    st.rt <- Rate.clamp (Rate.add st.rt rai) ~max:t.line_rate;
    st.rc <- Rate.avg st.rc st.rt
  end
  else begin
    st.rt <- Rate.clamp (Rate.add st.rt rhai) ~max:t.line_rate;
    st.rc <- Rate.avg st.rc st.rt
  end;
  st.rc <- Rate.clamp st.rc ~max:t.line_rate;
  if Rate.to_bps st.rc >= 0.999 *. Rate.to_bps t.line_rate then begin
    (* Fully recovered; park the control loop until the next signal. *)
    st.rc <- t.line_rate;
    st.rt <- t.line_rate;
    stop_increase_timer t
  end
  else reschedule_increase t

and reschedule_increase t =
  Engine.cancel t.engine t.increase_timer;
  t.increase_timer <-
    Engine.schedule_call t.engine ~delay:t.cfg.rate_increase_timer
      t.cb_increase ~obj:(Obj.repr ())

and alpha_decay t =
  let a = (1. -. g) *. t.st.alpha in
  t.st.alpha <- a;
  if a > 1e-4 then reschedule_alpha t else t.alpha_handle <- Engine.none

and reschedule_alpha t =
  Engine.cancel t.engine t.alpha_handle;
  t.alpha_handle <-
    Engine.schedule_call t.engine ~delay:alpha_timer t.cb_alpha
      ~obj:(Obj.repr ())

let create ~engine ?conn ~config ~line_rate () =
  let t =
  {
    engine;
    conn;
    cfg = config;
    line_rate;
    st = { rc = line_rate; rt = line_rate; alpha = 1. };
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


(* Constant label lists: nothing is built per decrease. *)
let cause_cnp = [ ("cause", "cnp") ]
let cause_nack = [ ("cause", "nack") ]
let cause_timeout = [ ("cause", "timeout") ]

let tm_decrease t cause =
  if Telemetry.enabled () then begin
    let labels =
      match cause with
      | Event.Cnp -> cause_cnp
      | Event.Nack -> cause_nack
      | Event.Timeout -> cause_timeout
    in
    Telemetry.incr_counter ~labels "dcqcn_rate_decreases";
    match t.conn with
    | None -> ()
    | Some conn ->
        Telemetry.record ~time:(Engine.now t.engine)
          (Event.Rate_change { conn; gbps = Rate.to_gbps t.st.rc; cause })
  end

(* The cut factor is computed here, not passed in: a float argument to
   this out-of-line function would be boxed on every CNP. *)
let decrease t ~gate =
  let now = Engine.now t.engine in
  let gate_ok =
    match gate with
    | `Td -> Sim_time.diff now t.last_decrease >= t.cfg.rate_decrease_interval
    | `Nack ->
        Sim_time.diff now t.last_nack_decrease
        >= nack_decrease_interval
  in
  if gate_ok then begin
    t.last_decrease <- now;
    (match gate with
    | `Nack -> t.last_nack_decrease <- now
    | `Td -> ());
    t.decreases <- t.decreases + 1;
    let st = t.st in
    let factor =
      match gate with
      | `Td -> 1. -. (st.alpha /. 2.)
      | `Nack -> nack_factor
    in
    st.alpha <- ((1. -. g) *. st.alpha) +. g;
    st.rt <- st.rc;
    st.rc <- Rate.scale st.rc factor;
    t.stage <- 0;
    t.bytes_acc <- 0;
    tm_decrease t (match gate with `Td -> Event.Cnp | `Nack -> Event.Nack);
    reschedule_increase t;
    reschedule_alpha t
  end

let on_cnp t = decrease t ~gate:`Td

let on_nack t =
  if t.cfg.nack_slow_start then decrease t ~gate:`Nack

let on_timeout t =
  t.last_decrease <- Engine.now t.engine;
  t.decreases <- t.decreases + 1;
  t.st.rt <- t.st.rc;
  t.st.rc <- Rate.min_rate;
  t.stage <- 0;
  t.bytes_acc <- 0;
  tm_decrease t Event.Timeout;
  reschedule_increase t;
  reschedule_alpha t

let on_bytes_sent t b =
  if not (at_line_rate t) then begin
    t.bytes_acc <- t.bytes_acc + b;
    if t.bytes_acc >= byte_counter then begin
      t.bytes_acc <- t.bytes_acc - byte_counter;
      increase_event t
    end
  end
