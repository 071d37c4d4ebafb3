type t =
  | Ecmp
  | Random_spray
  | Adaptive
  | Psn_spray
  | Reps
  | Prime
  | Sprinklers
  | Spritz

let all =
  [ Ecmp; Random_spray; Adaptive; Psn_spray; Reps; Prime; Sprinklers; Spritz ]

let to_string = function
  | Ecmp -> "ecmp"
  | Random_spray -> "random-spray"
  | Adaptive -> "adaptive"
  | Psn_spray -> "psn-spray"
  | Reps -> "reps"
  | Prime -> "prime"
  | Sprinklers -> "sprinklers"
  | Spritz -> "spritz"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let ecmp_index_at ~shift ~(pkt : Packet.t) ~n =
  let h =
    Ecmp_hash.flow_hash ~src:pkt.Packet.src_node ~dst:pkt.Packet.dst_node
      ~sport:pkt.Packet.udp_sport ~dport:Headers.roce_dst_port
  in
  Ecmp_hash.path_of_hash_at ~shift ~hash:h ~paths:n

let ecmp_index ~pkt ~n = ecmp_index_at ~shift:0 ~pkt ~n

(* Scratch for [least_loaded]'s second pass, so each candidate's load is
   probed exactly once per choice; grown to the widest radix seen. *)
let ll_scratch = ref (Array.make 16 0)

let least_loaded rng ~n ~load =
  if n > Array.length !ll_scratch then ll_scratch := Array.make n 0;
  let loads = !ll_scratch in
  let best = ref max_int and count = ref 0 in
  for i = 0 to n - 1 do
    let l = load i in
    Array.unsafe_set loads i l;
    if l < !best then begin
      best := l;
      count := 1
    end
    else if l = !best then incr count
  done;
  (* Reservoir-free uniform pick among the [!count] minima. *)
  let pick = Rng.int rng !count in
  let idx = ref 0 and seen = ref 0 and result = ref 0 in
  while !idx < n do
    if Array.unsafe_get loads !idx = !best then begin
      if !seen = pick then begin
        result := !idx;
        idx := n
      end
      else begin
        incr seen;
        incr idx
      end
    end
    else incr idx
  done;
  !result

(* Spritz scratch: damped effective weights, probed once per choice. *)
let spritz_scratch = ref (Array.make 16 0)

(* Weighted pick proportional to per-path shortest-path multiplicity,
   damped by queue depth: eff_j = w_j * (1 + (max_load - load_j)/4KiB),
   which degenerates to the raw path weights on balanced queues. *)
let spritz_pick rng ~n ~weights:(w : int array) ~load =
  if n > Array.length !spritz_scratch then spritz_scratch := Array.make n 0;
  let eff = !spritz_scratch in
  let max_load = ref 0 in
  for j = 0 to n - 1 do
    let l = load j in
    Array.unsafe_set eff j l;
    if l > !max_load then max_load := l
  done;
  let total = ref 0 in
  for j = 0 to n - 1 do
    let l = Array.unsafe_get eff j in
    let e = w.(j) * (1 + ((!max_load - l) / 4096)) in
    Array.unsafe_set eff j e;
    total := !total + e
  done;
  if !total <= 0 then Rng.int rng n
  else begin
    let r = ref (Rng.int rng !total) in
    let idx = ref 0 in
    while !r >= Array.unsafe_get eff !idx do
      r := !r - Array.unsafe_get eff !idx;
      incr idx
    done;
    !idx
  end

let choose_at ~shift ?state ?weights t ~rng ~(pkt : Packet.t) ~n ~load =
  if n <= 0 then invalid_arg "Lb_policy.choose: no candidates";
  if n = 1 then 0
  else
    match (t, pkt.Packet.kind) with
    | Ecmp, _
    | ( Random_spray | Adaptive | Psn_spray | Reps | Prime | Sprinklers
      | Spritz ),
      (Packet.Ack _ | Packet.Nack _ | Packet.Cnp | Packet.Pause _) ->
        ecmp_index_at ~shift ~pkt ~n
    | Random_spray, Packet.Data _ -> Rng.int rng n
    | Adaptive, Packet.Data _ -> least_loaded rng ~n ~load
    | Psn_spray, Packet.Data { psn; _ } ->
        let base =
          Spray.base_for_flow pkt.Packet.conn ~sport:pkt.Packet.udp_sport
            ~paths:n
        in
        Spray.path_for_psn ~psn ~base ~paths:n
    (* The stateful rivals act at the flow's source ToR, which passes its
       [Lb_state.t]; mid-fabric switches see no state and ECMP-hash the
       (possibly rewritten) entropy field, as a real fabric would. *)
    | Reps, Packet.Data _ -> (
        match state with
        | Some st ->
            let e = Lb_state.reps_next st ~conn_id:pkt.Packet.conn_id ~rng in
            pkt.Packet.udp_sport <- e;
            e mod n
        | None -> ecmp_index_at ~shift ~pkt ~n)
    | Prime, Packet.Data { psn; _ } -> (
        match state with
        | Some st ->
            (* Multi-part entropy: 12-bit pseudo-random base (flow x PSN)
               composed with a 4-bit congestion-adaptive part.  The
               composition is injective per part pair, so distinct parts
               always produce distinct hash inputs. *)
            let base =
              Ecmp_hash.mix
                ((pkt.Packet.conn_id * 0x9E3779B1) lxor Psn.to_int psn)
              land 0xFFF
            in
            let adapt = Lb_state.prime_adapt st ~conn_id:pkt.Packet.conn_id in
            let e = ((adapt land 0xF) lsl 12) lor base in
            pkt.Packet.udp_sport <- e;
            Ecmp_hash.path_of_hash_at ~shift ~hash:(Ecmp_hash.mix e) ~paths:n
        | None -> ecmp_index_at ~shift ~pkt ~n)
    | Sprinklers, Packet.Data _ -> (
        match state with
        | Some st ->
            Lb_state.sprinkler_choose st ~conn_id:pkt.Packet.conn_id
              ~bytes:pkt.Packet.size ~n ~load
        | None -> ecmp_index_at ~shift ~pkt ~n)
    | Spritz, Packet.Data _ -> (
        Lb_state.note_spritz_pick ();
        match weights with
        | Some w when Array.length w = n -> spritz_pick rng ~n ~weights:w ~load
        | Some _ | None -> Rng.int rng n)

let choose ?state ?weights t ~rng ~pkt ~n ~load =
  choose_at ~shift:0 ?state ?weights t ~rng ~pkt ~n ~load
