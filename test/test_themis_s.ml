(* Themis-Source: spraying at the source ToR. *)

let conn = Flow_id.make ~src:1 ~dst:5 ~qpn:2

let data psn =
  Packet.data ~conn ~sport:1111 ~psn:(Psn.of_int psn) ~payload:1000
    ~last_of_msg:false ~birth:0 ()

let ack () = Packet.ack ~conn ~sport:1111 ~psn:Psn.zero ~birth:0

let test_direct_eq1 () =
  let s = Themis_s.create ~paths:4 ~mode:Themis_s.Direct_egress in
  let base = Themis_s.base_path s (data 0) in
  for psn = 0 to 31 do
    Alcotest.(check int) "Eq. 1" (((psn mod 4) + base) mod 4)
      (Themis_s.egress_index s (data psn))
  done;
  Alcotest.(check int) "sprayed count" 32 (Themis_s.sprayed_packets s)

let test_direct_control_passthrough () =
  let s = Themis_s.create ~paths:4 ~mode:Themis_s.Direct_egress in
  Alcotest.(check int) "acks not sprayed" (-1)
    (Themis_s.egress_index s (ack ()));
  Alcotest.(check int) "no spray counted" 0 (Themis_s.sprayed_packets s)

let test_direct_apply_noop () =
  let s = Themis_s.create ~paths:4 ~mode:Themis_s.Direct_egress in
  let pkt = data 3 in
  let before = pkt.Packet.udp_sport in
  Themis_s.apply s pkt;
  Alcotest.(check int) "sport untouched" before pkt.Packet.udp_sport

let test_rewrite_mode () =
  let map = Path_map.build ~paths:4 in
  let s = Themis_s.create ~paths:4 ~mode:(Themis_s.Sport_rewrite map) in
  Alcotest.(check int) "no direct egress" (-1)
    (Themis_s.egress_index s (data 1));
  (* Residue 0 keeps the sport; other residues flip bits. *)
  let p0 = data 0 and p1 = data 1 in
  Themis_s.apply s p0;
  Themis_s.apply s p1;
  Alcotest.(check int) "residue 0 identity" 1111 p0.Packet.udp_sport;
  Alcotest.(check int) "residue 1 rewrite"
    (Path_map.rewrite map ~sport:1111 ~delta_path:1)
    p1.Packet.udp_sport;
  Alcotest.(check int) "sprayed" 2 (Themis_s.sprayed_packets s);
  (* Control packets keep their sport. *)
  let a = ack () in
  Themis_s.apply s a;
  Alcotest.(check int) "ack sport" 1111 a.Packet.udp_sport

let test_rewrite_covers_paths () =
  (* The rewritten sports steer a downstream ECMP over all 8 paths. *)
  let n = 8 in
  let map = Path_map.build ~paths:n in
  let s = Themis_s.create ~paths:n ~mode:(Themis_s.Sport_rewrite map) in
  let seen = Array.make n false in
  for psn = 0 to n - 1 do
    let pkt = data psn in
    Themis_s.apply s pkt;
    let h =
      Ecmp_hash.flow_hash ~src:pkt.Packet.src_node ~dst:pkt.Packet.dst_node
        ~sport:pkt.Packet.udp_sport ~dport:Headers.roce_dst_port
    in
    seen.(Ecmp_hash.path_of_hash ~hash:h ~paths:n) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Printf.sprintf "path %d" i) true hit)
    seen

let test_mismatched_pathmap () =
  let map = Path_map.build ~paths:8 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Themis_s.create: PathMap size disagrees with paths")
    (fun () -> ignore (Themis_s.create ~paths:4 ~mode:(Themis_s.Sport_rewrite map)))

let test_set_paths () =
  let s = Themis_s.create ~paths:4 ~mode:Themis_s.Direct_egress in
  Themis_s.set_paths s 3;
  Alcotest.(check int) "shrunk" 3 (Themis_s.paths s);
  (* Eq. 1 now cycles over three paths. *)
  let base = Themis_s.base_path s (data 0) in
  Alcotest.(check int) "recomputed" (((7 mod 3) + base) mod 3)
    (Themis_s.egress_index s (data 7));
  Alcotest.check_raises "invalid"
    (Invalid_argument "Themis_s.set_paths: paths must be positive") (fun () ->
      Themis_s.set_paths s 0)

let test_invalid_paths () =
  Alcotest.check_raises "zero paths"
    (Invalid_argument "Themis_s.create: paths must be positive") (fun () ->
      ignore (Themis_s.create ~paths:0 ~mode:Themis_s.Direct_egress))

let () =
  Alcotest.run "themis_s"
    [
      ( "direct egress",
        [
          Alcotest.test_case "Eq. 1" `Quick test_direct_eq1;
          Alcotest.test_case "control passthrough" `Quick test_direct_control_passthrough;
          Alcotest.test_case "apply noop" `Quick test_direct_apply_noop;
        ] );
      ( "sport rewrite",
        [
          Alcotest.test_case "rewrite" `Quick test_rewrite_mode;
          Alcotest.test_case "covers paths" `Quick test_rewrite_covers_paths;
          Alcotest.test_case "mismatched map" `Quick test_mismatched_pathmap;
          Alcotest.test_case "set paths" `Quick test_set_paths;
          Alcotest.test_case "invalid" `Quick test_invalid_paths;
        ] );
    ]
