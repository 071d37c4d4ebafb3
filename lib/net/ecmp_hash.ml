(* Fixed GF(2) matrix rows for the sport entropy function.  Row [i] has
   bit [i] set and only higher bits otherwise (a unitriangular matrix), so
   the map is invertible by construction — full rank is what guarantees
   the PathMap covers every residue.  The upper bits come from a splitmix
   constant so consecutive sports still avalanche. *)
let rows =
  let mask_above i = 0xFFFF land lnot ((1 lsl (i + 1)) - 1) in
  let seeds =
    [|
      0x9E37; 0x79B9; 0x7F4A; 0x7C15; 0xBF58; 0x476D; 0x1CE4; 0xE5B9;
      0x94D0; 0x49BB; 0x1331; 0x11EB; 0xD6E8; 0xFEB8; 0x6479; 0x8A5B;
    |]
  in
  Array.init 16 (fun i -> (1 lsl i) lor (seeds.(i) land mask_above i))

let linear16_bits x =
  let acc = ref 0 in
  for i = 0 to 15 do
    if x land (1 lsl i) <> 0 then acc := !acc lxor rows.(i)
  done;
  !acc

(* The map is GF(2)-linear, so it splits over the two input bytes: one
   256-entry table per byte, built with the bit loop, and two lookups
   per hash instead of sixteen bit tests. *)
let lo = Array.init 256 linear16_bits
let hi = Array.init 256 (fun b -> linear16_bits (b lsl 8))

let linear16 x =
  Array.unsafe_get lo (x land 0xFF)
  lxor Array.unsafe_get hi ((x lsr 8) land 0xFF)

let mix x =
  let z =
    let open Int64 in
    let z = add (of_int x) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  Int64.to_int z land max_int

let flow_hash ~src ~dst ~sport ~dport =
  (* The non-sport fields are avalanched together; sport enters via the
     linear entropy function so that PathMap deltas compose by XOR. *)
  let base = mix ((src * 65_599) + dst + (dport * 131)) in
  (base lxor linear16 (sport land 0xFFFF)) land max_int

let path_of_hash_at ~shift ~hash ~paths =
  if paths <= 0 then invalid_arg "Ecmp_hash.path_of_hash";
  let h = hash lsr shift in
  if paths land (paths - 1) = 0 then h land (paths - 1) else h mod paths

let path_of_hash ~hash ~paths = path_of_hash_at ~shift:0 ~hash ~paths
