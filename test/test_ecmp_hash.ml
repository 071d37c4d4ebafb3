(* ECMP hashing and the GF(2) linearity that PathMap construction needs. *)

let test_linear16_zero () = Alcotest.(check int) "E(0)=0" 0 (Ecmp_hash.linear16 0)

let test_linear16_range () =
  for x = 0 to 65_535 do
    let v = Ecmp_hash.linear16 x in
    if v < 0 || v > 0xFFFF then Alcotest.failf "linear16 %d out of range: %d" x v
  done

let test_linear16_injective () =
  (* Full rank: all 2^16 inputs map to distinct outputs. *)
  let seen = Array.make 65_536 false in
  for x = 0 to 65_535 do
    let v = Ecmp_hash.linear16 x in
    if seen.(v) then Alcotest.failf "collision at %d" x;
    seen.(v) <- true
  done

(* The bit loop over the frozen matrix rows: the byte-table
   [linear16] must equal it on every 16-bit input. *)
let test_linear16_tables () =
  let rows =
    [|
      0x9E37; 0x79BA; 0x7F4C; 0x7C18; 0xBF50; 0x4760; 0x1CC0; 0xE580;
      0x9500; 0x4A00; 0x1400; 0x1800; 0xD000; 0xE000; 0x4000; 0x8000;
    |]
  in
  for x = 0 to 65_535 do
    let want = ref 0 in
    for i = 0 to 15 do
      if x land (1 lsl i) <> 0 then want := !want lxor rows.(i)
    done;
    let got = Ecmp_hash.linear16 x in
    if got <> !want then Alcotest.failf "linear16 %d = %d, bit loop %d" x got !want
  done

let prop_linear16_linearity =
  QCheck.Test.make ~name:"E(a xor b) = E(a) xor E(b)" ~count:1000
    QCheck.(pair (int_range 0 65_535) (int_range 0 65_535))
    (fun (a, b) ->
      Ecmp_hash.linear16 (a lxor b)
      = Ecmp_hash.linear16 a lxor Ecmp_hash.linear16 b)

let test_mix_deterministic () =
  Alcotest.(check int) "same input" (Ecmp_hash.mix 42) (Ecmp_hash.mix 42);
  Alcotest.(check bool) "different inputs differ" true
    (Ecmp_hash.mix 42 <> Ecmp_hash.mix 43);
  Alcotest.(check bool) "non-negative" true (Ecmp_hash.mix (-5) >= 0)

let test_flow_hash_deterministic () =
  let h1 = Ecmp_hash.flow_hash ~src:1 ~dst:2 ~sport:100 ~dport:4791 in
  let h2 = Ecmp_hash.flow_hash ~src:1 ~dst:2 ~sport:100 ~dport:4791 in
  Alcotest.(check int) "deterministic" h1 h2;
  Alcotest.(check bool) "non-negative" true (h1 >= 0)

let prop_flow_hash_sport_linear =
  QCheck.Test.make ~name:"sport enters the flow hash linearly" ~count:500
    QCheck.(triple (int_range 0 65_535) (int_range 0 65_535) (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (sport, delta, (src, dst)) ->
      let h1 = Ecmp_hash.flow_hash ~src ~dst ~sport ~dport:4791 in
      let h2 = Ecmp_hash.flow_hash ~src ~dst ~sport:(sport lxor delta) ~dport:4791 in
      h1 lxor h2 = Ecmp_hash.linear16 delta)

let test_path_of_hash_bounds () =
  for paths = 1 to 17 do
    for h = 0 to 1000 do
      let p = Ecmp_hash.path_of_hash ~hash:(Ecmp_hash.mix h) ~paths in
      if p < 0 || p >= paths then Alcotest.failf "path out of range: %d/%d" p paths
    done
  done

let test_path_of_hash_pow2_low_bits () =
  Alcotest.(check int) "low bits" 0b101 (Ecmp_hash.path_of_hash ~hash:0b11101 ~paths:8)

let test_path_of_hash_invalid () =
  Alcotest.check_raises "zero paths" (Invalid_argument "Ecmp_hash.path_of_hash")
    (fun () -> ignore (Ecmp_hash.path_of_hash ~hash:1 ~paths:0))

let test_flow_hash_spread () =
  (* 64 distinct flows over 4 paths should not all collide. *)
  let counts = Array.make 4 0 in
  for i = 0 to 63 do
    let h = Ecmp_hash.flow_hash ~src:i ~dst:100 ~sport:(0x8000 + i) ~dport:4791 in
    let p = Ecmp_hash.path_of_hash ~hash:h ~paths:4 in
    counts.(p) <- counts.(p) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "no empty bucket" true (c > 0))
    counts

let () =
  Alcotest.run "ecmp_hash"
    [
      ( "linear16",
        [
          Alcotest.test_case "zero" `Quick test_linear16_zero;
          Alcotest.test_case "range" `Quick test_linear16_range;
          Alcotest.test_case "injective" `Quick test_linear16_injective;
          Alcotest.test_case "byte tables" `Quick test_linear16_tables;
          QCheck_alcotest.to_alcotest prop_linear16_linearity;
        ] );
      ( "flow_hash",
        [
          Alcotest.test_case "mix" `Quick test_mix_deterministic;
          Alcotest.test_case "deterministic" `Quick test_flow_hash_deterministic;
          Alcotest.test_case "spread" `Quick test_flow_hash_spread;
          QCheck_alcotest.to_alcotest prop_flow_hash_sport_linear;
        ] );
      ( "path_of_hash",
        [
          Alcotest.test_case "bounds" `Quick test_path_of_hash_bounds;
          Alcotest.test_case "pow2 low bits" `Quick test_path_of_hash_pow2_low_bits;
          Alcotest.test_case "invalid" `Quick test_path_of_hash_invalid;
        ] );
    ]
