type t = float

let bps x = x
let gbps x = x *. 1e9
let to_gbps x = x /. 1e9
let to_bps x = x
let zero = 0.
let is_zero r = r <= 0.

(* Inlined so a rate read from a flat float field reaches the division
   unboxed; an out-of-line call would box it per paced packet. *)
let[@inline] tx_time r ~bytes_ =
  assert (r > 0.);
  if bytes_ <= 0 then 0
  else
    let ns = float_of_int (bytes_ * 8) *. 1e9 /. r in
    (* Round half away from zero without [Float.round]'s libc call: for
       [ns > 0] the fraction [ns -. float i] is exact, so this equals
       [Float.round ns] bit for bit. *)
    let i = int_of_float ns in
    Int.max 1 (if ns -. float_of_int i >= 0.5 then i + 1 else i)

let bytes_in r d = int_of_float (r *. float_of_int d /. 8e9)
let min_rate = 100e6

(* Typed [Stdlib.max]/[min] ([if a >= b then a else b], [<=]): the
   polymorphic ones reach [compare_val] on this per-packet path. *)
let floor_min_rate r = if min_rate >= r then min_rate else r
let scale r f = floor_min_rate (r *. f)
let add a b = a +. b
let avg a b = (a +. b) /. 2.
let clamp r ~max:m =
  let r = floor_min_rate r in
  if m <= r then m else r
let compare = Float.compare
let pp ppf r = Format.fprintf ppf "%.2fGbps" (to_gbps r)
