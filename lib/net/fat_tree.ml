type t = {
  topo : Topology.t;
  k : int;
  hosts : int array;
  edges : int array;
  aggs : int array;
  cores : int array;
}

let build ~k ~bw ~link_delay =
  if k <= 0 || k mod 2 <> 0 then invalid_arg "Fat_tree.build: k must be even and positive";
  let half = k / 2 in
  let topo = Topology.create () in
  let n_hosts = k * half * half in
  let hosts =
    Array.init n_hosts (fun i ->
        Topology.add_node topo Topology.Host ~label:(Printf.sprintf "h%d" i))
  in
  let edges =
    Array.init (k * half) (fun i ->
        Topology.add_node topo Topology.Tor ~label:(Printf.sprintf "edge%d" i))
  in
  let aggs =
    Array.init (k * half) (fun i ->
        Topology.add_node topo Topology.Agg ~label:(Printf.sprintf "agg%d" i))
  in
  let cores =
    Array.init (half * half) (fun i ->
        Topology.add_node topo Topology.Spine ~label:(Printf.sprintf "core%d" i))
  in
  let connect a b bw =
    ignore (Topology.add_link topo a b ~bandwidth:bw ~delay:link_delay)
  in
  (* Hosts to edges: host i sits under edge (i / half). *)
  Array.iteri (fun i host -> connect host edges.(i / half) bw) hosts;
  (* Edge to agg: full bipartite within each pod. *)
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        connect edges.((pod * half) + e) aggs.((pod * half) + a) bw
      done
    done
  done;
  (* Agg j of each pod connects to cores [j*half .. j*half + half - 1]. *)
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        connect aggs.((pod * half) + a) cores.((a * half) + c) bw
      done
    done
  done;
  { topo; k; hosts; edges; aggs; cores }

let tor_of_host t host =
  let half = t.k / 2 in
  t.edges.(host / half)

let pod_of_host t host =
  let half = t.k / 2 in
  host / (half * half)

let inter_pod_paths t =
  let half = t.k / 2 in
  half * half

let intra_pod_paths t = t.k / 2
