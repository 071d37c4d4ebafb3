let path_for_psn ~psn ~base ~paths =
  if paths <= 0 then invalid_arg "Spray.path_for_psn: paths must be positive";
  ((Psn.to_int psn mod paths) + (base mod paths)) mod paths

let same_path ~a ~b ~paths = Psn.same_residue a b ~paths
let nack_is_valid ~tpsn ~epsn ~paths = same_path ~a:tpsn ~b:epsn ~paths

let base_for_flow (flow : Flow_id.t) ~sport ~paths =
  let h =
    Ecmp_hash.flow_hash ~src:flow.Flow_id.src ~dst:flow.Flow_id.dst ~sport
      ~dport:Headers.roce_dst_port
  in
  Ecmp_hash.path_of_hash ~hash:h ~paths
