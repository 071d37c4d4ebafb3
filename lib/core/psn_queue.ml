type t = {
  slots : int array;
  mutable head : int;  (* index of oldest entry *)
  mutable len : int;
  mutable overwrites : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Psn_queue.create: capacity must be >= 1";
  { slots = Array.make capacity 0; head = 0; len = 0; overwrites = 0 }

let capacity_for ~bw ~rtt ~mtu ~factor =
  if factor <= 0. then invalid_arg "Psn_queue.capacity_for: factor";
  if mtu <= 0 then invalid_arg "Psn_queue.capacity_for: mtu";
  let bdp_bytes = Rate.to_bps bw *. Sim_time.to_sec rtt /. 8. in
  Stdlib.max 1 (int_of_float (Float.ceil (bdp_bytes *. factor /. float_of_int mtu)))

let capacity t = Array.length t.slots
let length t = t.len
let is_empty t = t.len = 0
let overwrites t = t.overwrites

let push t psn =
  let cap = capacity t in
  if t.len = cap then begin
    (* Ring is full: the oldest entry is lost. *)
    t.slots.(t.head) <- Psn.to_int psn;
    t.head <- (t.head + 1) mod cap;
    t.overwrites <- t.overwrites + 1
  end
  else begin
    t.slots.((t.head + t.len) mod cap) <- Psn.to_int psn;
    t.len <- t.len + 1
  end

(* Unboxed [pop]: -1 when empty (PSNs are non-negative). *)
let pop_int t =
  if t.len = 0 then -1
  else begin
    let v = t.slots.(t.head) in
    t.head <- (t.head + 1) mod capacity t;
    t.len <- t.len - 1;
    v
  end

let pop t =
  let v = pop_int t in
  if v < 0 then None else Some (Psn.of_int v)

let rec pop_until_greater t epsn =
  let v = pop_int t in
  if v < 0 || Psn.gt (Psn.of_int v) epsn then v else pop_until_greater t epsn

(* Top-level recursion: a local [scan] capturing [t] would allocate its
   closure on every blocked NACK. *)
let rec scan t target i =
  i < t.len
  && (t.slots.((t.head + i) mod capacity t) = target || scan t target (i + 1))

let contains t psn = scan t (Psn.to_int psn) 0

let clear t =
  t.head <- 0;
  t.len <- 0

let to_list t =
  List.init t.len (fun i -> Psn.of_int t.slots.((t.head + i) mod capacity t))
