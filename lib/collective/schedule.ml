type transfer = { src : int; dst : int; bytes : int }
type step = transfer list
type t = step list

let check ~ranks ~bytes =
  if ranks < 2 then invalid_arg "Schedule: need at least 2 ranks";
  if bytes <= 0 then invalid_arg "Schedule: bytes must be positive"

let chunk ~ranks ~bytes = Stdlib.max 1 ((bytes + ranks - 1) / ranks)

let ring_step ~ranks ~bytes =
  List.init ranks (fun r -> { src = r; dst = (r + 1) mod ranks; bytes })

let ring_steps ~ranks ~bytes ~count =
  let c = chunk ~ranks ~bytes in
  List.init count (fun _ -> ring_step ~ranks ~bytes:c)

let ring_allreduce ~ranks ~bytes =
  check ~ranks ~bytes;
  ring_steps ~ranks ~bytes ~count:(2 * (ranks - 1))

let ring_reduce_scatter ~ranks ~bytes =
  check ~ranks ~bytes;
  ring_steps ~ranks ~bytes ~count:(ranks - 1)

let ring_allgather ~ranks ~bytes =
  check ~ranks ~bytes;
  ring_steps ~ranks ~bytes ~count:(ranks - 1)

let alltoall ~ranks ~bytes =
  check ~ranks ~bytes;
  let c = chunk ~ranks ~bytes in
  [
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src = dst then None else Some { src; dst; bytes = c })
          (List.init ranks Fun.id))
      (List.init ranks Fun.id);
  ]

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let halving_doubling_allreduce ~ranks ~bytes =
  check ~ranks ~bytes;
  if not (is_power_of_two ranks) then
    invalid_arg "Schedule.halving_doubling_allreduce: ranks must be a power of two";
  let rounds = log2 ranks in
  let exchange ~distance ~bytes_per_rank =
    List.init ranks (fun r -> { src = r; dst = r lxor distance; bytes = bytes_per_rank })
  in
  (* Recursive halving: distances 1, 2, 4...; payload halves each step. *)
  let halving =
    List.init rounds (fun s ->
        exchange ~distance:(1 lsl s)
          ~bytes_per_rank:(Stdlib.max 1 (bytes / (2 lsl s))))
  in
  (* Recursive doubling mirrors the halving phase in reverse. *)
  let doubling =
    List.init rounds (fun i ->
        let s = rounds - 1 - i in
        exchange ~distance:(1 lsl s)
          ~bytes_per_rank:(Stdlib.max 1 (bytes / (2 lsl s))))
  in
  halving @ doubling

let broadcast ~ranks ~root ~bytes =
  check ~ranks ~bytes;
  if root < 0 || root >= ranks then invalid_arg "Schedule.broadcast: root";
  (* Work in root-relative rank space: relative rank 0 is the root. *)
  let rounds =
    let rec go acc n = if n >= ranks then acc else go (acc + 1) (n * 2) in
    go 0 1
  in
  List.init rounds (fun s ->
      let distance = 1 lsl s in
      List.filter_map
        (fun rel ->
          let peer = rel + distance in
          if rel < distance && peer < ranks then
            Some
              {
                src = (rel + root) mod ranks;
                dst = (peer + root) mod ranks;
                bytes;
              }
          else None)
        (List.init ranks Fun.id))

let ring_once ~ranks ~bytes =
  check ~ranks ~bytes;
  [ ring_step ~ranks ~bytes ]

type collective = Allreduce | Hd_allreduce | Alltoall | Allgather | Reduce_scatter

let collectives =
  [
    ("allreduce", Allreduce);
    ("hd-allreduce", Hd_allreduce);
    ("alltoall", Alltoall);
    ("allgather", Allgather);
    ("reduce-scatter", Reduce_scatter);
  ]

let collective_to_string c =
  fst (List.find (fun (_, c') -> c' = c) collectives)

let collective_of_string s =
  match List.assoc_opt s collectives with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown collective %S" s)

let of_collective = function
  | Allreduce -> ring_allreduce
  | Hd_allreduce -> halving_doubling_allreduce
  | Alltoall -> alltoall
  | Allgather -> ring_allgather
  | Reduce_scatter -> ring_reduce_scatter

let total_bytes t =
  List.fold_left
    (fun acc step ->
      List.fold_left (fun acc tr -> acc + tr.bytes) acc step)
    0 t

let steps = List.length
let transfers t = List.fold_left (fun acc s -> acc + List.length s) 0 t

let pp_summary ppf t =
  Format.fprintf ppf "%d steps, %d transfers, %d bytes total" (steps t)
    (transfers t) (total_bytes t)
