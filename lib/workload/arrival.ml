type process = Poisson | Onoff of { on_us : int; off_us : int }

let process_to_string = function
  | Poisson -> "poisson"
  | Onoff { on_us; off_us } -> Printf.sprintf "onoff:%d:%d" on_us off_us

let ( let* ) = Result.bind

let process_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "poisson" ] -> Ok Poisson
  | [ "onoff"; on; off ] ->
      let* on_us = Spec_line.int_of on ~what:"arrival" in
      let* off_us = Spec_line.int_of off ~what:"arrival" in
      if on_us <= 0 || off_us < 0 then Error "bad on/off durations"
      else Ok (Onoff { on_us; off_us })
  | _ -> Error (Printf.sprintf "unknown arrival process %S" s)

let flows_per_sec ~load_pct ~capacity_bps ~mean_flow_bytes =
  if load_pct <= 0 then invalid_arg "Arrival: load_pct must be positive";
  if capacity_bps <= 0. then invalid_arg "Arrival: capacity must be positive";
  if mean_flow_bytes <= 0. then invalid_arg "Arrival: mean flow size";
  float_of_int load_pct /. 100. *. capacity_bps /. (8. *. mean_flow_bytes)

type t = {
  proc : process;
  gap_ns : float;  (** Long-run mean inter-arrival gap. *)
  burst_gap_ns : float;  (** Mean gap while ON (= [gap_ns] for Poisson). *)
  on_ns : float;
  off_ns : float;
  mutable on_left_ns : float;  (** [< 0.] before the first draw. *)
}

let create ~process ~load_pct ~capacity_bps ~mean_flow_bytes =
  let lambda = flows_per_sec ~load_pct ~capacity_bps ~mean_flow_bytes in
  let gap_ns = 1e9 /. lambda in
  match process with
  | Poisson ->
      {
        proc = process;
        gap_ns;
        burst_gap_ns = gap_ns;
        on_ns = 0.;
        off_ns = 0.;
        on_left_ns = 0.;
      }
  | Onoff { on_us; off_us } ->
      let on_ns = float_of_int on_us *. 1e3 in
      let off_ns = float_of_int off_us *. 1e3 in
      (* Compress arrivals into ON periods so the long-run rate still
         matches the target load: duty cycle on/(on+off). *)
      let duty = on_ns /. (on_ns +. off_ns) in
      {
        proc = process;
        gap_ns;
        burst_gap_ns = gap_ns *. duty;
        on_ns;
        off_ns;
        on_left_ns = -1.;
      }

let mean_gap_ns t = t.gap_ns

let next_gap_ns t rng =
  match t.proc with
  | Poisson -> max 1 (int_of_float (Rng.exponential rng ~mean:t.gap_ns))
  | Onoff _ ->
      if t.on_left_ns < 0. then
        (* First draw starts inside an ON period. *)
        t.on_left_ns <- Rng.exponential rng ~mean:t.on_ns;
      let acc = ref 0. in
      let gap = ref (-1.) in
      while !gap < 0. do
        if t.on_left_ns <= 0. then begin
          acc := !acc +. Rng.exponential rng ~mean:t.off_ns;
          t.on_left_ns <- Rng.exponential rng ~mean:t.on_ns
        end
        else
          let g = Rng.exponential rng ~mean:t.burst_gap_ns in
          if g <= t.on_left_ns then begin
            t.on_left_ns <- t.on_left_ns -. g;
            gap := !acc +. g
          end
          else begin
            (* Burn the rest of the ON period and fall into OFF. *)
            acc := !acc +. t.on_left_ns;
            t.on_left_ns <- 0.
          end
      done;
      max 1 (int_of_float !gap)
