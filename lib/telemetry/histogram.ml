(* Log-bucketed histogram.

   Bucket 0 is the underflow bucket (values below [min_value], including
   non-positive and NaN inputs).  Bucket [i >= 1] covers
   [bound (i-1), bound i) with bound j = min_value * growth^j; the last
   bucket absorbs everything above the configured range.  Geometric
   buckets give a fixed relative error (~9% with the default growth of
   2^(1/8)) over an arbitrary dynamic range with a few hundred ints of
   state, so recording stays allocation-free and O(1). *)

type t = {
  min_value : float;
  growth : float;
  log_min : float;
  inv_log_growth : float;
  bounds : float array;  (* bounds.(j) = min_value *. growth^j *)
  buckets : int array;  (* length bounds + 2 *)
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let default_growth = Float.pow 2. 0.125

let create ?(min_value = 1e-6) ?(max_value = 1e12) ?(growth = default_growth)
    () =
  if min_value <= 0. then invalid_arg "Histogram.create: min_value <= 0";
  if max_value <= min_value then
    invalid_arg "Histogram.create: max_value <= min_value";
  if growth <= 1. then invalid_arg "Histogram.create: growth <= 1";
  let n_bounds =
    1 + int_of_float (ceil (log (max_value /. min_value) /. log growth))
  in
  let bounds = Array.init n_bounds (fun j -> min_value *. (growth ** float_of_int j)) in
  (* Bucket 0 = (-inf, bounds.(0)); bucket i = [bounds.(i-1), bounds.(i));
     bucket n_bounds = [bounds.(n_bounds-1), inf). *)
  {
    min_value;
    growth;
    log_min = log min_value;
    inv_log_growth = 1. /. log growth;
    bounds;
    buckets = Array.make (n_bounds + 1) 0;
    count = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
  }

let bucket_count t = Array.length t.buckets

(* The log gives the bucket up to floating-point rounding; one
   comparison against the exact precomputed bounds on each side pins the
   boundary values deterministically. *)
let bucket_index t v =
  if not (v >= t.min_value) then 0
  else begin
    let est = 1 + int_of_float ((log v -. t.log_min) *. t.inv_log_growth) in
    let last = Array.length t.buckets - 1 in
    let i = if est >= last then last else if est < 1 then 1 else est in
    let i = if i > 1 && v < Array.unsafe_get t.bounds (i - 1) then i - 1 else i in
    if i < last && v >= Array.unsafe_get t.bounds i then i + 1 else i
  end

let bucket_lower t i = if i <= 0 then neg_infinity else t.bounds.(i - 1)

let bucket_upper t i =
  if i < 0 then neg_infinity
  else if i >= Array.length t.buckets - 1 then infinity
  else t.bounds.(i)

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let i = bucket_index t v in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1)

let count t = t.count
let sum t = t.sum
let min_recorded t = if t.count = 0 then nan else t.vmin
let max_recorded t = if t.count = 0 then nan else t.vmax
let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count

(* Representative value of a bucket: the geometric midpoint of its
   bounds, clamped into the observed [vmin, vmax] so extreme quantiles
   stay within the recorded range. *)
let representative t i =
  let v =
    if i = 0 then t.min_value
    else
      let lo = bucket_lower t i in
      let hi = bucket_upper t i in
      if Float.is_finite hi then sqrt (lo *. hi) else lo
  in
  Float.max t.vmin (Float.min t.vmax v)

let percentile t p =
  if t.count = 0 then nan
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank =
      Stdlib.max 1 (int_of_float (ceil (p *. float_of_int t.count)))
    in
    let i = ref 0 and cum = ref 0 in
    let n = Array.length t.buckets in
    (try
       while !i < n do
         cum := !cum + t.buckets.(!i);
         if !cum >= rank then raise Exit;
         incr i
       done
     with Exit -> ());
    representative t (Stdlib.min !i (n - 1))
  end

let same_shape a b =
  a.min_value = b.min_value
  && a.growth = b.growth
  && Array.length a.buckets = Array.length b.buckets

let merge ~into src =
  if not (same_shape into src) then
    invalid_arg "Histogram.merge: incompatible bucket layouts";
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) src.buckets;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax

let copy t = { t with bounds = t.bounds; buckets = Array.copy t.buckets }
