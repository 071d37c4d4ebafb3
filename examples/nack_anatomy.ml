(* Anatomy of a NACK under Themis.

   A microscope view of the destination-ToR logic (Sections 3.3/3.4):
   we drive a Themis-D instance by hand through the exact packet arrival
   orders of the paper's Figures 4b and 4c and narrate every decision —
   the ring-queue scan that recovers the tPSN, the Eq. 3 validity test,
   and the compensation state machine. *)

let paths = 2
let conn = Flow_id.make ~src:0 ~dst:4 ~qpn:1

(* The receiver's ToR, which this Themis-D instance stands for, and the
   clock its verdict events are stamped with. *)
let tor = 5
let engine = Engine.create ()

let data psn =
  Packet.data ~conn ~sport:100 ~psn:(Psn.of_int psn) ~payload:1000
    ~last_of_msg:false ~birth:0 ()

let nack epsn = Packet.nack ~conn ~sport:100 ~epsn:(Psn.of_int epsn) ~birth:0

let show_queue d =
  match Flow_table.find (Themis_d.flow_table d) conn with
  | None -> "[]"
  | Some e ->
      "["
      ^ String.concat "; "
          (List.map
             (fun p -> string_of_int (Psn.to_int p))
             (Psn_queue.to_list e.Flow_table.queue))
      ^ "]"

let arrive d psn =
  Themis_d.on_data d (data psn);
  Format.printf "  data PSN %d leaves the ToR   ring queue now %s@." psn
    (show_queue d)

let receive_nack d epsn =
  let before = show_queue d in
  let decision = Themis_d.on_nack d (nack epsn) in
  let verdict =
    match decision with
    | Themis_d.Forward -> "VALID  -> forwarded to the sender"
    | Themis_d.Block -> "INVALID -> blocked at the ToR"
  in
  Format.printf "  NACK(ePSN=%d) from the NIC  scan %s: %s@." epsn before verdict

let fresh () =
  Themis_d.create ~paths ~queue_capacity:32 ~node:tor
    ~clock:(fun () -> Engine.now engine)
    ~inject_nack:(fun ~conn:_ ~conn_id:_ ~sport:_ ~epsn ->
      Format.printf
        "  >> Themis-D generates NACK(ePSN=%d) on the RNIC's behalf@."
        (Psn.to_int epsn))
    ()

let () =
  Format.printf
    "Two equal-cost paths; Eq. 1 sends even PSNs one way, odd the other.@.";
  Format.printf "@.== Figure 4b: identifying the tPSN and filtering ==@.";
  let d = fresh () in
  List.iter (arrive d) [ 0; 1; 3 ];
  Format.printf "  (PSN 2 is merely late on the other path)@.";
  receive_nack d 2;
  arrive d 2;
  List.iter (arrive d) [ 6; 4 ];
  Format.printf "  (tPSN 6 shares ePSN 4's path: that loss is real)@.";
  receive_nack d 4;

  Format.printf "@.== Figure 4c: compensating a blocked NACK ==@.";
  let d2 = fresh () in
  List.iter (arrive d2) [ 0; 1; 3 ];
  receive_nack d2 2;
  Format.printf "  (BePSN=2 armed; PSN 2 was in fact dropped in the fabric)@.";
  arrive d2 4;
  Format.printf
    "  (4 mod 2 = 2 mod 2: a later packet on PSN 2's own path arrived, so 2 is lost)@.";

  let s1 = Themis_d.stats d and s2 = Themis_d.stats d2 in
  Format.printf
    "@.Totals: %d NACKs seen, %d blocked, %d forwarded valid, %d compensated.@."
    (s1.Themis_d.nacks_seen + s2.Themis_d.nacks_seen)
    (s1.Themis_d.nacks_blocked + s2.Themis_d.nacks_blocked)
    (s1.Themis_d.nacks_forwarded_valid + s2.Themis_d.nacks_forwarded_valid)
    (s1.Themis_d.compensation_sent + s2.Themis_d.compensation_sent)
