type scheme =
  | Ecmp
  | Adaptive
  | Random_spray
  | Psn_spray_only
  | Themis of { compensation : bool }
  | Reps
  | Prime
  | Sprinklers
  | Spritz

let scheme_to_string = function
  | Ecmp -> "ecmp"
  | Adaptive -> "adaptive"
  | Random_spray -> "random-spray"
  | Psn_spray_only -> "psn-spray-only"
  | Themis { compensation = true } -> "themis"
  | Themis { compensation = false } -> "themis-nocomp"
  | Reps -> "reps"
  | Prime -> "prime"
  | Sprinklers -> "sprinklers"
  | Spritz -> "spritz"

let scheme_of_string = function
  | "ecmp" -> Ok Ecmp
  | "adaptive" | "ar" -> Ok Adaptive
  | "random-spray" | "spray" -> Ok Random_spray
  | "psn-spray-only" | "psn-spray" -> Ok Psn_spray_only
  | "themis" -> Ok (Themis { compensation = true })
  | "themis-nocomp" -> Ok (Themis { compensation = false })
  | "reps" -> Ok Reps
  | "prime" -> Ok Prime
  | "sprinklers" -> Ok Sprinklers
  | "spritz" -> Ok Spritz
  | s -> Error (Printf.sprintf "unknown scheme %S" s)

type params = {
  fabric : Leaf_spine.params;
  scheme : scheme;
  nic : Rnic.config;
  per_port_cap : int;
  queue_factor : float;
  last_hop_jitter : Sim_time.t;
  seed : int;
  telemetry : bool;
      (** Install a fresh global {!Telemetry} context in {!build} and run a
          periodic {!Sampler} over port queues and QP in-flight bytes. *)
  telemetry_interval : Sim_time.t;  (** Sampler cadence. *)
}

let default_params ~fabric ~scheme =
  {
    fabric;
    scheme;
    nic = Rnic.default_config ~line_rate:fabric.Leaf_spine.host_bw;
    per_port_cap = 9 * 1024 * 1024;
    queue_factor = 1.5;
    last_hop_jitter = Sim_time.zero;
    seed = 42;
    telemetry = false;
    telemetry_interval = Sim_time.us 20;
  }

type t = {
  core : Fabric_core.t;
  fabric : Leaf_spine.t;
  mutable themis_active : bool;
}

let lb_of_scheme = function
  | Ecmp -> Lb_policy.Ecmp
  | Adaptive -> Lb_policy.Adaptive
  | Random_spray -> Lb_policy.Random_spray
  | Psn_spray_only -> Lb_policy.Psn_spray
  | Themis _ ->
      (* Data packets are steered by Themis-S; the policy below only
         applies to control packets and after a failure fallback. *)
      Lb_policy.Ecmp
  | Reps -> Lb_policy.Reps
  | Prime -> Lb_policy.Prime
  | Sprinklers -> Lb_policy.Sprinklers
  | Spritz -> Lb_policy.Spritz

let last_hop_rtt (p : params) =
  Fabric_core.last_hop_rtt ~bw:p.fabric.Leaf_spine.host_bw
    ~link_delay:p.fabric.Leaf_spine.link_delay ~mtu:p.nic.Rnic.mtu

let build (params : params) =
  let engine = Engine.create () in
  if params.telemetry then ignore (Telemetry.enable ());
  let fabric = Leaf_spine.build params.fabric in
  let topo = fabric.Leaf_spine.topo in
  let routing = Routing.compute topo in
  let root_rng = Rng.create ~seed:params.seed in
  let n_hosts = Array.length fabric.Leaf_spine.hosts in
  let nics =
    Array.init n_hosts (fun host ->
        Rnic.create ~engine ~node:host ~config:params.nic)
  in
  let sampler =
    if params.telemetry then
      Some (Sampler.create ~engine ~interval:params.telemetry_interval)
    else None
  in
  let core =
    Fabric_core.create ~engine ~topo ~routing ~nics
      ~tor_of_host:(Leaf_spine.tor_of_host fabric)
      ?sampler ()
  in
  let add_switch node ~bw =
    Fabric_core.add_switch core ~rng:root_rng ~node
      {
        (Switch.default_config ~bw (lb_of_scheme params.scheme)) with
        per_port_cap = params.per_port_cap;
      }
  in
  Array.iter
    (fun leaf -> add_switch leaf ~bw:params.fabric.Leaf_spine.host_bw)
    fabric.Leaf_spine.leaves;
  Array.iter
    (fun spine -> add_switch spine ~bw:params.fabric.Leaf_spine.fabric_bw)
    fabric.Leaf_spine.spines;
  let themis_active =
    match params.scheme with
    | Themis { compensation } ->
        Fabric_core.install_themis core ~tors:fabric.Leaf_spine.leaves
          ~paths:(Leaf_spine.n_paths fabric) ~mode:Themis_s.Direct_egress
          ~compensation ~bw:params.fabric.Leaf_spine.host_bw
          ~link_delay:params.fabric.Leaf_spine.link_delay
          ~mtu:params.nic.Rnic.mtu ~factor:params.queue_factor;
        true
    | Ecmp | Adaptive | Random_spray | Psn_spray_only | Reps | Prime
    | Sprinklers | Spritz ->
        false
  in
  Fabric_core.wire core
    ?jitter:
      (if params.last_hop_jitter > 0 then Some (root_rng, params.last_hop_jitter)
       else None);
  { core; fabric; themis_active }

let core t = t.core
let engine t = Fabric_core.engine t.core
let link_ports_pair t = Fabric_core.link_ports_pair t.core
let fabric t = t.fabric
let routing t = Fabric_core.routing t.core
let nic t = Fabric_core.nic t.core
let switch t = Fabric_core.switch t.core

let tor_switches t =
  Array.to_list
    (Array.map (fun leaf -> switch t ~node:leaf) t.fabric.Leaf_spine.leaves)

let switches_list t = Fabric_core.switches_list t.core
let iter_ports t = Fabric_core.iter_ports t.core
let n_paths t = Leaf_spine.n_paths t.fabric
let connect t = Fabric_core.connect t.core
let run ?until t = Engine.run ?until (engine t)
let now t = Engine.now (engine t)

(* Count spines that still have every ToR link alive; the shrink-pathset
   mode can keep spraying only over fully symmetric survivors. *)
let live_spine_count t =
  let topo = t.fabric.Leaf_spine.topo in
  Array.fold_left
    (fun acc spine ->
      let all_up =
        Array.for_all
          (fun leaf ->
            match Topology.link_between topo leaf spine with
            | Some l -> (Topology.link topo l).Topology.up
            | None -> false)
          t.fabric.Leaf_spine.leaves
      in
      if all_up then acc + 1 else acc)
    0 t.fabric.Leaf_spine.spines

let fail_link ?(mode = `Fallback_ecmp) t ~link_id =
  Topology.set_link_up t.fabric.Leaf_spine.topo ~link_id false;
  if Telemetry.enabled () then begin
    Telemetry.incr_counter "link_failures";
    Telemetry.record ~time:(now t)
      (Event.Link_failure { link_id })
  end;
  (match link_ports_pair t ~link_id with
  | Some (pab, pba) ->
      Port.set_up pab false;
      Port.set_up pba false
  | None -> ());
  Routing.recompute (routing t);
  if t.themis_active then
    match mode with
    | `Fallback_ecmp ->
        t.themis_active <- false;
        List.iter
          (fun sw ->
            Switch.set_themis sw ~s:None ~d:None;
            Switch.set_lb sw Lb_policy.Ecmp)
          (tor_switches t)
    | `Shrink_pathset ->
        (* Section 6 future work: keep spraying over the surviving
           symmetric path subset instead of reverting to ECMP. *)
        let live = live_spine_count t in
        if live < 1 then begin
          t.themis_active <- false;
          List.iter
            (fun sw ->
              Switch.set_themis sw ~s:None ~d:None;
              Switch.set_lb sw Lb_policy.Ecmp)
            (tor_switches t)
        end
        else Fabric_core.set_themis_paths t.core live

let themis_active t = t.themis_active

(* Adversarial-path scenario: derate every leaf<->spine link of one
   spine (both directions), leaving topology and routing untouched —
   the paths survive but serialize slower, which is exactly the
   asymmetry that breaks load-oblivious spraying. *)
let set_spine_rate t ~spine ~gbps =
  let topo = t.fabric.Leaf_spine.topo in
  if spine < 0 || spine >= Array.length t.fabric.Leaf_spine.spines then
    invalid_arg "Network.set_spine_rate: spine index out of range";
  let spine_node = t.fabric.Leaf_spine.spines.(spine) in
  let rate = Rate.gbps (float_of_int gbps) in
  Array.iter
    (fun leaf ->
      match Topology.link_between topo leaf spine_node with
      | None -> ()
      | Some link_id -> (
          match link_ports_pair t ~link_id with
          | Some (pab, pba) ->
              Port.set_bandwidth pab rate;
              Port.set_bandwidth pba rate
          | None -> ()))
    t.fabric.Leaf_spine.leaves

(* Transient failure recovery: bring a failed link back.  The Themis
   middleware is NOT re-enabled — the paper's fallback is one-way until
   the operator re-arms it — but ECMP routing reconverges so flows can
   use the link again. *)
let restore_link t ~link_id =
  Topology.set_link_up t.fabric.Leaf_spine.topo ~link_id true;
  (match link_ports_pair t ~link_id with
  | Some (pab, pba) ->
      Port.set_up pab true;
      Port.set_up pba true
  | None -> ());
  Routing.recompute (routing t)

type themis_totals = Fabric_core.themis_totals = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  queue_overwrites : int;
}

let themis_totals t = Fabric_core.themis_totals t.core
let sum_nics t = Fabric_core.sum_nics t.core
let total_data_packets t = sum_nics t Rnic.data_packets_sent
let total_retx_packets t = sum_nics t Rnic.retx_packets_sent
let total_nacks_generated t = sum_nics t Rnic.nacks_sent
let total_nacks_delivered t = sum_nics t Rnic.nacks_received
let total_cnps t = sum_nics t Rnic.cnps_sent
let total_ooo_arrivals t = sum_nics t Rnic.ooo_arrivals
let total_buffer_drops t = Fabric_core.sum_switches t.core Switch.dropped_buffer
let total_ecn_marks t = Fabric_core.sum_switches t.core Switch.ecn_marked
