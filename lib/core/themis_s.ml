type mode = Direct_egress | Sport_rewrite of Path_map.t

type t = { mutable paths : int; mode : mode; mutable sprayed : int }

let create ~paths ~mode =
  if paths <= 0 then invalid_arg "Themis_s.create: paths must be positive";
  (match mode with
  | Sport_rewrite map when Path_map.paths map <> paths ->
      invalid_arg "Themis_s.create: PathMap size disagrees with paths"
  | Sport_rewrite _ | Direct_egress -> ());
  { paths; mode; sprayed = 0 }

let paths t = t.paths
let mode t = t.mode

let set_paths t paths =
  if paths <= 0 then invalid_arg "Themis_s.set_paths: paths must be positive";
  (match t.mode with
  | Sport_rewrite map when Path_map.paths map < paths ->
      invalid_arg "Themis_s.set_paths: PathMap too small"
  | Sport_rewrite _ | Direct_egress -> ());
  t.paths <- paths

let base_path t (pkt : Packet.t) =
  Spray.base_for_flow pkt.Packet.conn ~sport:pkt.Packet.udp_sport
    ~paths:t.paths

let egress_index t (pkt : Packet.t) =
  match (t.mode, pkt.Packet.kind) with
  | Direct_egress, Packet.Data { psn; _ } ->
      t.sprayed <- t.sprayed + 1;
      Spray.path_for_psn ~psn ~base:(base_path t pkt) ~paths:t.paths
  | Direct_egress, (Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _)
  | Sport_rewrite _, _ ->
      -1

let apply t (pkt : Packet.t) =
  match (t.mode, pkt.Packet.kind) with
  | Sport_rewrite map, Packet.Data { psn; _ } ->
      let residue = Psn.mod_paths psn t.paths in
      pkt.Packet.udp_sport <-
        Path_map.rewrite map ~sport:pkt.Packet.udp_sport ~delta_path:residue;
      t.sprayed <- t.sprayed + 1
  | Sport_rewrite _, (Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _)
  | Direct_egress, _ ->
      ()

let sprayed_packets t = t.sprayed
