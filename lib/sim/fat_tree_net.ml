type params = {
  k : int;
  host_bw : Rate.t;
  fabric_bw : Rate.t;
  link_delay : Sim_time.t;
  nic : Rnic.config;
  scheme : Network.scheme;
  per_port_cap : int;
  queue_factor : float;
  ft_seed : int;
}

let default_params ?(k = 4) ~themis () =
  let host_bw = Rate.gbps 100. in
  {
    k;
    host_bw;
    fabric_bw = Rate.gbps 100.;
    link_delay = Sim_time.us 1;
    nic = Rnic.default_config ~line_rate:host_bw;
    scheme =
      (if themis then Network.Themis { compensation = true } else Network.Ecmp);
    per_port_cap = 9 * 1024 * 1024;
    queue_factor = 1.5;
    ft_seed = 42;
  }

type t = { core : Fabric_core.t; params : params; ft : Fat_tree.t }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let build (params : params) =
  if params.k < 4 || not (is_power_of_two (params.k / 2)) then
    invalid_arg "Fat_tree_net.build: k/2 must be a power of two, k >= 4";
  let engine = Engine.create () in
  let ft =
    Fat_tree.build ~k:params.k ~host_bw:params.host_bw
      ~fabric_bw:params.fabric_bw ~link_delay:params.link_delay
  in
  let topo = ft.Fat_tree.topo in
  let routing = Routing.compute topo in
  let half = params.k / 2 in
  let tier_bits = log2 half in
  let n_paths = half * half in
  let nics =
    Array.init
      (Array.length ft.Fat_tree.hosts)
      (fun host -> Rnic.create ~engine ~node:host ~config:params.nic)
  in
  let root_rng = Rng.create ~seed:params.ft_seed in
  let core =
    Fabric_core.create ~engine ~topo ~routing ~nics
      ~tor_of_host:(Fat_tree.tor_of_host ft) ()
  in
  (* Edge and core consume the low hash window; aggregation switches the
     next one, so the PathMap's 2*tier_bits of entropy pick (agg, core)
     independently.  Under Themis the policy is ECMP (Network.lb_of_scheme):
     sport-rewrite steering requires hash-based next-hop choice. *)
  let add_switch ~shift node =
    Fabric_core.add_switch core ~rng:root_rng ~node
      {
        (Switch.default_config ~bw:params.fabric_bw
           (Network.lb_of_scheme params.scheme))
        with
        per_port_cap = params.per_port_cap;
        ecmp_shift = shift;
      }
  in
  Array.iter (add_switch ~shift:0) ft.Fat_tree.edges;
  Array.iter (add_switch ~shift:tier_bits) ft.Fat_tree.aggs;
  Array.iter (add_switch ~shift:0) ft.Fat_tree.cores;
  (match params.scheme with
  | Network.Themis { compensation } ->
      Fabric_core.install_themis core ~tors:ft.Fat_tree.edges ~paths:n_paths
        ~mode:(Themis_s.Sport_rewrite (Path_map.build ~paths:n_paths))
        ~compensation ~bw:params.host_bw ~link_delay:params.link_delay
        ~mtu:params.nic.Rnic.mtu ~factor:params.queue_factor
  | Network.Ecmp | Adaptive | Random_spray | Psn_spray_only | Reps | Prime
  | Sprinklers | Spritz ->
      ());
  Fabric_core.wire core;
  { core; params; ft }

let core t = t.core
let engine t = Fabric_core.engine t.core
let fat_tree t = t.ft

let n_paths t =
  let half = t.params.k / 2 in
  half * half

let nic t = Fabric_core.nic t.core
let switch t = Fabric_core.switch t.core
let connect t = Fabric_core.connect t.core
let run ?until t = Engine.run ?until (engine t)
let total_retx_packets t = Fabric_core.sum_nics t.core Rnic.retx_packets_sent
let total_nacks_delivered t = Fabric_core.sum_nics t.core Rnic.nacks_received
let themis_totals t = Fabric_core.themis_totals t.core
let sprayed_packets t = Fabric_core.sprayed_packets t.core
