(* One int block: [| head; len; overwrites; ring... |].  The per-packet
   [push] reads the header and writes the ring slot in the same block, so
   the ring costs one dependent load from its flow-table entry instead of
   a record load followed by the ring array's. *)
type t = int array

let head_i = 0
let len_i = 1
let overwrites_i = 2
let base = 3

let create ~capacity =
  if capacity < 1 then invalid_arg "Psn_queue.create: capacity must be >= 1";
  Array.make (base + capacity) 0

let capacity_for ~bw ~rtt ~mtu ~factor =
  if factor <= 0. then invalid_arg "Psn_queue.capacity_for: factor";
  if mtu <= 0 then invalid_arg "Psn_queue.capacity_for: mtu";
  let bdp_bytes = Rate.to_bps bw *. Sim_time.to_sec rtt /. 8. in
  Stdlib.max 1 (int_of_float (Float.ceil (bdp_bytes *. factor /. float_of_int mtu)))

let default_factor = 1.5

let capacity t = Array.length t - base
let length t = Array.unsafe_get t len_i
let is_empty t = length t = 0
let overwrites t = Array.unsafe_get t overwrites_i

(* Ring offset [i] past the head, as an index into [t]: [head + i] is
   below [2 * cap], so one compare replaces [mod]. *)
let[@inline] at t i =
  let cap = Array.length t - base in
  let j = Array.unsafe_get t head_i + i in
  base + if j >= cap then j - cap else j

let push t psn =
  let len = Array.unsafe_get t len_i in
  let cap = capacity t in
  if len = cap then begin
    (* Ring is full: the oldest entry is lost. *)
    let h = Array.unsafe_get t head_i in
    Array.unsafe_set t (base + h) (Psn.to_int psn);
    let h = h + 1 in
    Array.unsafe_set t head_i (if h = cap then 0 else h);
    Array.unsafe_set t overwrites_i (Array.unsafe_get t overwrites_i + 1)
  end
  else begin
    Array.unsafe_set t (at t len) (Psn.to_int psn);
    Array.unsafe_set t len_i (len + 1)
  end

(* Unboxed [pop]: -1 when empty (PSNs are non-negative). *)
let pop_int t =
  let len = Array.unsafe_get t len_i in
  if len = 0 then -1
  else begin
    let h = Array.unsafe_get t head_i in
    let v = Array.unsafe_get t (base + h) in
    let h = h + 1 in
    Array.unsafe_set t head_i (if h = capacity t then 0 else h);
    Array.unsafe_set t len_i (len - 1);
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
  i < Array.unsafe_get t len_i
  && (Array.unsafe_get t (at t i) = target || scan t target (i + 1))

let contains t psn = scan t (Psn.to_int psn) 0

let clear t =
  Array.unsafe_set t head_i 0;
  Array.unsafe_set t len_i 0

let to_list t = List.init (length t) (fun i -> Psn.of_int t.(at t i))
