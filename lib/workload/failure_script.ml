type storm = { s_start_ns : int; s_stop_ns : int; s_ppm : int }

type compiled = {
  link_faults : Fuzz_spec.link_fault list;
  storms : storm list;
}

let compile ~(shape : Fuzz_spec.shape) failures =
  let faults = ref [] and storms = ref [] in
  List.iter
    (fun (f : Workload_spec.failure) ->
      match f with
      | Workload_spec.Flap
          { flap_link; first_down_ns; down_for_ns; period_ns; count } ->
          for k = 0 to count - 1 do
            let down_ns = first_down_ns + (k * period_ns) in
            faults :=
              { Fuzz_spec.fault_link = flap_link;
                down_ns;
                up_ns = down_ns + down_for_ns }
              :: !faults
          done
      | Workload_spec.Spine_down { spine; at_ns } ->
          let n_leaves =
            match shape with
            | Fuzz_spec.Ls { n_leaves; _ } -> n_leaves
            | Fuzz_spec.Ft _ ->
                invalid_arg "Failure_script: spine death on a fat tree"
          in
          for leaf = 0 to n_leaves - 1 do
            faults :=
              {
                Fuzz_spec.fault_link = Fuzz_spec.fabric_link_id shape ~leaf ~spine;
                down_ns = at_ns;
                up_ns = 0;
              }
              :: !faults
          done
      | Workload_spec.Drop_storm { storm_start_ns; storm_dur_ns; storm_ppm } ->
          storms :=
            {
              s_start_ns = storm_start_ns;
              s_stop_ns = storm_start_ns + storm_dur_ns;
              s_ppm = storm_ppm;
            }
            :: !storms)
    failures;
  (* Sort for a deterministic installation order independent of the
     declaration order in the spec. *)
  {
    link_faults = List.sort compare (List.rev !faults);
    storms = List.sort compare (List.rev !storms);
  }

(* A storm is the fuzz fault layer's iid drop model confined to a time
   window; build the minimal spec the installer reads its knobs from. *)
let storm_fault_spec ~(shape : Fuzz_spec.shape) ~seed ~ppm =
  {
    Fuzz_spec.seed;
    shape;
    gbn = false;
    queue_factor_pct = 100;
    per_port_kb = 9216;
    jitter_ns = 0;
    drop_ppm = ppm;
    corrupt_ppm = 0;
    dup_ppm = 0;
    delay_ppm = 0;
    delay_max_ns = 1;
    shrink_pathset = false;
    deadline_ns = 1;
    schemes = [];
    transfers = [];
    link_faults = [];
    slow_spine = None;
  }

let schedule ~net ~(shape : Fuzz_spec.shape) ~seed compiled =
  let engine = Network.engine net in
  Fuzz_run.schedule_link_faults net ~mode:`Fallback_ecmp compiled.link_faults;
  List.mapi
    (fun i storm ->
      let rng = Rng.create ~seed:(seed lxor 0x5708 lxor (i * 0x9e3779b9)) in
      Fuzz_fault.install
        ~window:(storm.s_start_ns, storm.s_stop_ns)
        ~engine ~rng
        ~spec:(storm_fault_spec ~shape ~seed ~ppm:storm.s_ppm)
        ~iter_ports:(Network.iter_ports net) ())
    compiled.storms

let storm_drops counters =
  List.fold_left
    (fun acc (c : Fuzz_fault.counters) ->
      acc + c.Fuzz_fault.drops_data + c.Fuzz_fault.drops_ctrl)
    0 counters
