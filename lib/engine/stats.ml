module Time_series = struct
  type bucket = { mutable sum : float; mutable count : int }
  type t = { width : Sim_time.t; tbl : (int, bucket) Hashtbl.t }

  let create ~bucket =
    if bucket <= 0 then invalid_arg "Time_series.create: bucket width";
    { width = bucket; tbl = Hashtbl.create 64 }

  let add t ~time v =
    let idx = time / t.width in
    match Hashtbl.find_opt t.tbl idx with
    | Some b ->
        b.sum <- b.sum +. v;
        b.count <- b.count + 1
    | None -> Hashtbl.add t.tbl idx { sum = v; count = 1 }

  let buckets t =
    Hashtbl.fold (fun idx b acc -> (idx * t.width, b.sum, b.count) :: acc) t.tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

  let means t =
    List.map (fun (ts, sum, count) -> (ts, sum /. float_of_int count)) (buckets t)

  let sums t = List.map (fun (ts, sum, _) -> (ts, sum)) (buckets t)

  let rate_per_sec t =
    let w = Sim_time.to_sec t.width in
    List.map (fun (ts, sum, _) -> (ts, sum /. w)) (buckets t)
end

module Summary = struct
  type t = { mutable samples : float list; mutable n : int }

  let create () = { samples = []; n = 0 }

  let add t v =
    t.samples <- v :: t.samples;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = List.fold_left ( +. ) 0. t.samples
  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  let min t =
    match t.samples with [] -> nan | x :: r -> List.fold_left Stdlib.min x r

  let max t =
    match t.samples with [] -> nan | x :: r -> List.fold_left Stdlib.max x r

  let percentile t p =
    match List.sort Float.compare t.samples with
    | [] -> nan
    | sorted ->
        let arr = Array.of_list sorted in
        let n = Array.length arr in
        let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
        arr.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
end
