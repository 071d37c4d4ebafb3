type dist =
  | Fixed of int
  | Uniform of { lo : int; hi : int }
  | Websearch
  | Hadoop
  | Storage

(* Piecewise-linear CDFs over flow size in bytes, after the published
   datacenter distributions these workloads are conventionally named for:
   the DCTCP web-search trace (heavy-tailed, most bytes in multi-MB
   responses), the Facebook Hadoop trace (dominated by sub-10 kB RPCs with
   a thin large-shuffle tail) and a block-storage profile (bimodal: small
   metadata operations plus large reads).  Points are (bytes, cum-prob);
   sampling interpolates linearly inside a segment. *)

let websearch_cdf =
  [|
    (6_000., 0.0);
    (10_000., 0.15);
    (20_000., 0.2);
    (30_000., 0.3);
    (50_000., 0.4);
    (80_000., 0.53);
    (200_000., 0.6);
    (1_000_000., 0.7);
    (2_000_000., 0.8);
    (5_000_000., 0.9);
    (10_000_000., 0.97);
    (30_000_000., 1.0);
  |]

let hadoop_cdf =
  [|
    (150., 0.0);
    (300., 0.1);
    (1_000., 0.5);
    (2_000., 0.6);
    (10_000., 0.7);
    (100_000., 0.8);
    (1_000_000., 0.95);
    (10_000_000., 1.0);
  |]

let storage_cdf =
  [|
    (4_000., 0.0);
    (8_000., 0.5);
    (64_000., 0.7);
    (512_000., 0.8);
    (4_000_000., 0.95);
    (64_000_000., 1.0);
  |]

let cdf_of = function
  | Websearch -> Some websearch_cdf
  | Hadoop -> Some hadoop_cdf
  | Storage -> Some storage_cdf
  | Fixed _ | Uniform _ -> None

let sample_cdf cdf u =
  (* Find the segment [i, i+1] whose probability band contains u. *)
  let n = Array.length cdf in
  let rec seg i = if i >= n - 2 || snd cdf.(i + 1) >= u then i else seg (i + 1) in
  let i = seg 0 in
  let b0, c0 = cdf.(i) and b1, c1 = cdf.(i + 1) in
  let frac = if c1 <= c0 then 0. else (u -. c0) /. (c1 -. c0) in
  b0 +. (frac *. (b1 -. b0))

let sample dist rng =
  match dist with
  | Fixed n -> max 1 n
  | Uniform { lo; hi } ->
      let lo = max 1 lo in
      let hi = max lo hi in
      lo + Rng.int rng (hi - lo + 1)
  | Websearch | Hadoop | Storage ->
      let cdf = Option.get (cdf_of dist) in
      max 1 (int_of_float (sample_cdf cdf (Rng.float rng)))

let mean_bytes = function
  | Fixed n -> float_of_int (max 1 n)
  | Uniform { lo; hi } ->
      let lo = max 1 lo in
      let hi = max lo hi in
      float_of_int (lo + hi) /. 2.
  | (Websearch | Hadoop | Storage) as d ->
      (* Linear interpolation inside a segment means size is uniform over
         the segment's byte range, so the segment contributes its midpoint
         weighted by its probability mass. *)
      let cdf = Option.get (cdf_of d) in
      let acc = ref 0. in
      for i = 0 to Array.length cdf - 2 do
        let b0, c0 = cdf.(i) and b1, c1 = cdf.(i + 1) in
        acc := !acc +. ((c1 -. c0) *. ((b0 +. b1) /. 2.))
      done;
      !acc

let max_bytes = function
  | Fixed n -> max 1 n
  | Uniform { lo; hi } -> max (max 1 lo) hi
  | (Websearch | Hadoop | Storage) as d ->
      let cdf = Option.get (cdf_of d) in
      int_of_float (fst cdf.(Array.length cdf - 1))

let to_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%d:%d" lo hi
  | Websearch -> "websearch"
  | Hadoop -> "hadoop"
  | Storage -> "storage"

let ( let* ) = Result.bind

let of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "websearch" ] -> Ok Websearch
  | [ "hadoop" ] -> Ok Hadoop
  | [ "storage" ] -> Ok Storage
  | [ "fixed"; n ] ->
      let* n = Spec_line.int_of n ~what:"dist" in
      if n <= 0 then Error "fixed size must be positive" else Ok (Fixed n)
  | [ "uniform"; lo; hi ] ->
      let* lo = Spec_line.int_of lo ~what:"dist" in
      let* hi = Spec_line.int_of hi ~what:"dist" in
      if lo <= 0 || hi < lo then Error "bad uniform range"
      else Ok (Uniform { lo; hi })
  | _ -> Error (Printf.sprintf "unknown distribution %S" s)

let pp ppf d = Format.pp_print_string ppf (to_string d)
