type t = {
  topo : Topology.t;
  (* Flat (CSR) adjacency, built once by [compute]: node [u]'s
     neighbours occupy slots [off.(u) .. off.(u + 1) - 1] of
     [peer]/[link], sorted by peer id with link id breaking ties — the
     order [next_hops] reports. *)
  off : int array;
  peer : int array;
  link : int array;
  up : Bytes.t;
      (* link id -> '\001' when up at the last compute/recompute: the
         link-state snapshot every query reads. *)
  dist : int array array;
      (* destination -> BFS distance row; [||] for non-hosts. *)
  mutable generation : int;
      (* Bumped on every [recompute]; switches compare it to decide when
         their compiled port arrays are stale. *)
  pc_memo : int array array;
      (* path_count memo: dst -> per-source counts (-1 = unknown), the
         inner array allocated lazily on the first query for that dst.
         Cleared wholesale on [recompute]. *)
}

let is_up t l = Bytes.unsafe_get t.up l <> '\000'

(* One BFS towards [dst] over up links, never transiting through other
   hosts (the nodes with a distance row), into [row]; [queue] is
   a reusable node-count work array. *)
let bfs t ~queue row dst =
  let { off; peer; link; dist; _ } = t in
  Array.fill row 0 (Array.length row) max_int;
  row.(dst) <- 0;
  queue.(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    if u = dst || Array.length dist.(u) = 0 then begin
      let d = row.(u) + 1 in
      for s = off.(u) to off.(u + 1) - 1 do
        let p = peer.(s) in
        if is_up t link.(s) && row.(p) = max_int then begin
          row.(p) <- d;
          queue.(!tail) <- p;
          incr tail
        end
      done
    end
  done

let refresh t =
  let topo = t.topo in
  if
    Topology.link_count topo <> Bytes.length t.up
    || Topology.node_count topo <> Array.length t.dist
  then invalid_arg "Routing.recompute: topology grew after compute";
  for l = 0 to Bytes.length t.up - 1 do
    Bytes.set t.up l (if (Topology.link topo l).Topology.up then '\001' else '\000')
  done;
  let queue = Array.make (Array.length t.dist) 0 in
  Array.iteri
    (fun dst row -> if Array.length row > 0 then bfs t ~queue row dst)
    t.dist

let compute topo =
  let n = Topology.node_count topo in
  (* Stable sort: parallel links keep link-id (insertion) order. *)
  let sorted =
    Array.init n (fun u ->
        Array.of_list
          (List.stable_sort
             (fun (a, _) (b, _) -> compare a b)
             (Topology.neighbors topo u)))
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u ns -> off.(u + 1) <- off.(u) + Array.length ns) sorted;
  let peer = Array.make off.(n) 0 and link = Array.make off.(n) 0 in
  Array.iteri
    (fun u ns ->
      Array.iteri
        (fun i (p, l) ->
          peer.(off.(u) + i) <- p;
          link.(off.(u) + i) <- l)
        ns)
    sorted;
  let t =
    {
      topo;
      off;
      peer;
      link;
      up = Bytes.make (Topology.link_count topo) '\000';
      dist =
        Array.init n (fun u ->
            if Topology.is_host topo u then Array.make n max_int else [||]);
      generation = 0;
      pc_memo = Array.make n [||];
    }
  in
  refresh t;
  t

let recompute t =
  refresh t;
  Array.fill t.pc_memo 0 (Array.length t.pc_memo) [||];
  t.generation <- t.generation + 1

let generation t = t.generation

let row t dst =
  if dst < 0 || dst >= Array.length t.dist then
    invalid_arg "Routing: destination is not a host"
  else
    let row = Array.unsafe_get t.dist dst in
    if Array.length row = 0 then invalid_arg "Routing: destination is not a host"
    else row

(* Slot [s] of [node] is a next hop iff its link is up and its peer is
   one hop closer; [want] is [row.(node) - 1], or -1 when [node] is the
   destination or unreachable (no row entry is negative). *)
let want row ~node ~dst =
  let d = row.(node) in
  if d = max_int || node = dst then -1 else d - 1

let is_hop t row want s = is_up t t.link.(s) && row.(t.peer.(s)) = want

let next_hop_count t ~node ~dst =
  let row = row t dst in
  let want = want row ~node ~dst in
  let c = ref 0 in
  for s = t.off.(node) to t.off.(node + 1) - 1 do
    if is_hop t row want s then incr c
  done;
  !c

(* Link of the [i]-th next hop at or after slot [s], before [stop]. *)
let rec nth_hop_link t row want ~stop s i =
  if s >= stop then invalid_arg "Routing.next_hop_link: no such next hop"
  else if not (is_hop t row want s) then nth_hop_link t row want ~stop (s + 1) i
  else if i = 0 then t.link.(s)
  else nth_hop_link t row want ~stop (s + 1) (i - 1)

let next_hop_link t ~node ~dst i =
  let row = row t dst in
  let want = want row ~node ~dst in
  if i < 0 then invalid_arg "Routing.next_hop_link: no such next hop";
  nth_hop_link t row want ~stop:t.off.(node + 1) t.off.(node) i

let next_hops t ~node ~dst =
  let row = row t dst in
  let want = want row ~node ~dst in
  let hops = Array.make (next_hop_count t ~node ~dst) (0, 0) in
  let i = ref 0 in
  for s = t.off.(node) to t.off.(node + 1) - 1 do
    if is_hop t row want s then begin
      hops.(!i) <- (t.peer.(s), t.link.(s));
      incr i
    end
  done;
  hops

let distance t ~node ~dst = (row t dst).(node)

(* Shortest paths from [u] to [dst], memoized in [memo]. *)
let rec count t row memo ~dst u =
  if u = dst then 1
  else
    let c = memo.(u) in
    if c >= 0 then c
    else begin
      let want = want row ~node:u ~dst in
      let c = ref 0 in
      for s = t.off.(u) to t.off.(u + 1) - 1 do
        if is_hop t row want s then c := !c + count t row memo ~dst t.peer.(s)
      done;
      memo.(u) <- !c;
      !c
    end

(* Memoized per (src, dst) in [pc_memo]; Themis-S setup queries this
   once per flow, so the walk must not be repaid per call. *)
let path_count t ~src ~dst =
  if src = dst then 1
  else begin
    let row = row t dst in
    let memo =
      match t.pc_memo.(dst) with
      | [||] ->
          let m = Array.make (Array.length row) (-1) in
          t.pc_memo.(dst) <- m;
          m
      | m -> m
    in
    count t row memo ~dst src
  end

(* Per-next-hop shortest-path multiplicities at [node] towards [dst]:
   weights.(i) = number of distinct shortest paths continuing through
   [next_hops].(i).  Sums to [path_count ~src:node ~dst] (Spritz's
   weighted spraying invariant). *)
let path_weights t ~node ~dst =
  if node = dst then [||]
  else begin
    let row = row t dst in
    let want = want row ~node ~dst in
    let w = Array.make (next_hop_count t ~node ~dst) 0 in
    let i = ref 0 in
    for s = t.off.(node) to t.off.(node + 1) - 1 do
      if is_hop t row want s then begin
        w.(!i) <- path_count t ~src:t.peer.(s) ~dst;
        incr i
      end
    done;
    w
  end
