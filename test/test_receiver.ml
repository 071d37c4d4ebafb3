(* The responder state machine: NIC-SR, GBN, Ideal. *)

type log_event = Ack of int | Nack of int

(* A receiver and the control packets it replied with, newest first:
   each reply carries the ePSN as it stands when [on_data] returns. *)
type rx = { r : Receiver.t; mutable log : log_event list }

let make ?(mode = Receiver.Sr) ?(ack_coalesce = 1) () =
  { r = Receiver.create ~mode ~ack_coalesce; log = [] }

let observe r = function
  | Receiver.No_reply -> None
  | Receiver.Ack -> Some (Ack (Receiver.epsn r))
  | Receiver.Nack -> Some (Nack (Receiver.epsn r))

let arrive ?(payload = 100) ?(last_of_msg = false) rx seq =
  match observe rx.r (Receiver.on_data rx.r ~seq ~payload ~last_of_msg) with
  | Some ev -> rx.log <- ev :: rx.log
  | None -> ()

let feed rx seqs = List.iter (arrive rx) seqs
let delivered rx = Receiver.delivered_bytes rx.r

let test_in_order () =
  let rx = make () in
  feed rx [ 0; 1; 2 ];
  Alcotest.(check int) "epsn" 3 (Receiver.epsn rx.r);
  Alcotest.(check int) "delivered" 300 (delivered rx);
  Alcotest.(check bool) "acks, no nacks" true
    (List.for_all (function Ack _ -> true | Nack _ -> false) rx.log);
  Alcotest.(check int) "three acks" 3 (Receiver.acks_sent rx.r)

let test_sr_ooo_single_nack () =
  let rx = make () in
  (* Gap at 0: packets 1, 2, 3 arrive first.  Exactly one NACK(0). *)
  feed rx [ 1; 2; 3 ];
  Alcotest.(check int) "epsn stuck" 0 (Receiver.epsn rx.r);
  let nacks = List.filter (function Nack _ -> true | Ack _ -> false) rx.log in
  Alcotest.(check bool) "single NACK for ePSN 0" true (nacks = [ Nack 0 ]);
  Alcotest.(check int) "ooo buffered" 3 (Receiver.ooo_buffered rx.r);
  Alcotest.(check int) "payload placed" 300 (delivered rx);
  (* The gap fills: ePSN jumps over the bitmap; ack reflects it. *)
  feed rx [ 0 ];
  Alcotest.(check int) "epsn jumps" 4 (Receiver.epsn rx.r);
  Alcotest.(check int) "ooo drained" 0 (Receiver.ooo_buffered rx.r);
  Alcotest.(check int) "all delivered once" 400 (delivered rx);
  match rx.log with
  | Ack 4 :: _ -> ()
  | _ -> Alcotest.fail "expected cumulative ACK 4 after fill"

let test_sr_new_epsn_new_nack () =
  let rx = make () in
  feed rx [ 1 ];  (* NACK(0) *)
  feed rx [ 0 ];  (* fills; epsn=2 *)
  feed rx [ 3 ];  (* new gap at 2: NACK(2) *)
  let nacks =
    List.rev (List.filter_map (function Nack e -> Some e | Ack _ -> None) rx.log)
  in
  Alcotest.(check (list int)) "one NACK per distinct ePSN" [ 0; 2 ] nacks;
  Alcotest.(check int) "count" 2 (Receiver.nacks_sent rx.r)

let test_sr_duplicate_ooo_no_extra_nack () =
  let rx = make () in
  feed rx [ 2; 2; 2 ];
  Alcotest.(check int) "one nack" 1 (Receiver.nacks_sent rx.r);
  Alcotest.(check int) "dups" 2 (Receiver.duplicate_packets rx.r);
  Alcotest.(check int) "payload once" 100 (delivered rx)

let test_sr_stale_duplicate_reacks () =
  let rx = make () in
  feed rx [ 0; 1 ];
  let before = List.length rx.log in
  feed rx [ 0 ];
  Alcotest.(check int) "dup counted" 1 (Receiver.duplicate_packets rx.r);
  Alcotest.(check int) "payload not recounted" 200 (delivered rx);
  (match rx.log with
  | Ack 2 :: _ -> ()
  | _ -> Alcotest.fail "expected re-ACK of current ePSN");
  Alcotest.(check bool) "one more event" true (List.length rx.log = before + 1)

let test_gbn_drops_ooo () =
  let rx = make ~mode:Receiver.Gbn () in
  feed rx [ 0; 2; 3 ];
  Alcotest.(check int) "epsn" 1 (Receiver.epsn rx.r);
  Alcotest.(check int) "dropped" 2 (Receiver.ooo_dropped rx.r);
  Alcotest.(check int) "only in-order delivered" 100 (delivered rx);
  Alcotest.(check int) "one nack" 1 (Receiver.nacks_sent rx.r);
  Alcotest.(check int) "no buffering" 0 (Receiver.ooo_buffered rx.r);
  (* Retransmitted 1 arrives: delivery resumes; 2 and 3 must come again. *)
  feed rx [ 1 ];
  Alcotest.(check int) "epsn 2" 2 (Receiver.epsn rx.r);
  feed rx [ 2; 3 ];
  Alcotest.(check int) "caught up" 4 (Receiver.epsn rx.r)

let test_ideal_never_nacks () =
  let rx = make ~mode:Receiver.Ideal () in
  feed rx [ 3; 1; 2; 0 ];
  Alcotest.(check int) "epsn" 4 (Receiver.epsn rx.r);
  Alcotest.(check int) "all delivered" 400 (delivered rx);
  Alcotest.(check int) "zero nacks" 0 (Receiver.nacks_sent rx.r);
  Alcotest.(check bool) "only acks" true
    (List.for_all (function Ack _ -> true | Nack _ -> false) rx.log)

let test_ack_coalescing () =
  let rx = make ~ack_coalesce:4 () in
  feed rx [ 0; 1; 2 ];
  Alcotest.(check int) "held back" 0 (Receiver.acks_sent rx.r);
  feed rx [ 3 ];
  Alcotest.(check int) "flushed at 4" 1 (Receiver.acks_sent rx.r)

let test_last_of_msg_flushes () =
  let rx = make ~ack_coalesce:100 () in
  arrive rx 0;
  arrive rx ~payload:50 ~last_of_msg:true 1;
  Alcotest.(check int) "flushed" 1 (Receiver.acks_sent rx.r);
  match rx.log with
  | [ Ack 2 ] -> ()
  | _ -> Alcotest.fail "expected exactly ACK 2"

let test_gap_fill_flushes () =
  let rx = make ~ack_coalesce:100 () in
  feed rx [ 1; 2 ];
  Alcotest.(check int) "nothing yet" 0 (Receiver.acks_sent rx.r);
  feed rx [ 0 ];
  (* Filling a gap forces a cumulative ACK despite coalescing. *)
  Alcotest.(check int) "flush on fill" 1 (Receiver.acks_sent rx.r)

let test_invalid_coalesce () =
  Alcotest.check_raises "zero" (Invalid_argument "Receiver.create: ack_coalesce >= 1")
    (fun () -> ignore (make ~ack_coalesce:0 ()))

(* Property: feeding any permutation of 0..n-1 to an SR receiver delivers
   each payload exactly once and ends with ePSN = n. *)
let prop_sr_permutation_complete =
  QCheck.Test.make ~name:"SR handles any permutation" ~count:200
    QCheck.(int_range 1 60)
    (fun n ->
      let rng = Rng.create ~seed:n in
      let arr = Array.init n Fun.id in
      Rng.shuffle_in_place rng arr;
      let rx = make () in
      Array.iter (arrive rx ~payload:7) arr;
      Receiver.epsn rx.r = n && delivered rx = 7 * n
      && Receiver.ooo_buffered rx.r = 0)

(* Property: with duplicates injected, payload is still counted once. *)
let prop_sr_dedup =
  QCheck.Test.make ~name:"SR deduplicates" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 80) (int_range 0 20))
    (fun seqs ->
      let rx = make () in
      List.iter (arrive rx ~payload:3) seqs;
      let distinct = List.sort_uniq compare seqs in
      delivered rx = 3 * List.length distinct)

(* --- Reference model ------------------------------------------------- *)

(* The §2.2 responder restated over plain lists: [held] is the set of
   sequences above ePSN accepted so far, [nacked] the ePSNs a NACK was
   sent for.  Replies and counters are derived from the rules, not from
   the receiver's own bookkeeping (no nack flag, no ring). *)
type model = {
  m_mode : Receiver.mode;
  m_coalesce : int;
  m_epsn : int;
  held : int list;
  nacked : int list;
  unacked : int;  (* in-order advances since the last ACK *)
  m_delivered : int;
  m_acks : int;
  m_nacks : int;
  m_ooo : int;
}

let model_create mode coalesce =
  {
    m_mode = mode;
    m_coalesce = coalesce;
    m_epsn = 0;
    held = [];
    nacked = [];
    unacked = 0;
    m_delivered = 0;
    m_acks = 0;
    m_nacks = 0;
    m_ooo = 0;
  }

let payload_of seq = 1 + (seq mod 7)

let ack m = ({ m with unacked = 0; m_acks = m.m_acks + 1 }, Some (Ack m.m_epsn))

let rec skip_held epsn held =
  if List.mem epsn held then skip_held (epsn + 1) held else epsn

let model_step m (seq, last_of_msg) =
  if seq = m.m_epsn then begin
    let epsn = skip_held (seq + 1) m.held in
    let m =
      {
        m with
        m_epsn = epsn;
        held = List.filter (fun s -> s >= epsn) m.held;
        unacked = m.unacked + (epsn - seq);
        m_delivered = m.m_delivered + payload_of seq;
      }
    in
    if m.unacked >= m.m_coalesce || last_of_msg || epsn - seq > 1 then ack m
    else (m, None)
  end
  else if seq < m.m_epsn then ack m
  else begin
    let m = { m with m_ooo = m.m_ooo + 1 } in
    let m =
      if m.m_mode = Receiver.Gbn || List.mem seq m.held then m
      else
        { m with held = seq :: m.held; m_delivered = m.m_delivered + payload_of seq }
    in
    if m.m_mode = Receiver.Ideal || List.mem m.m_epsn m.nacked then (m, None)
    else
      ( { m with nacked = m.m_epsn :: m.nacked; m_nacks = m.m_nacks + 1 },
        Some (Nack m.m_epsn) )
  end

(* Arrivals as a sender's retransmitting stream would produce them:
   mostly the next fresh sequence, some fresh sequences lost (a gap),
   some old ones sent again (a gap fill or a duplicate), and
   message-final flags scattered over all of them. *)
let gen_arrivals =
  let open QCheck.Gen in
  let op =
    frequency
      [ (6, return `Next); (2, return `Lose); (3, map (fun k -> `Again k) (int_range 0 12)) ]
  in
  let to_seqs ops =
    let next = ref 0 in
    List.filter_map
      (fun (op, last) ->
        match op with
        | `Next ->
            incr next;
            Some (!next - 1, last)
        | `Lose ->
            incr next;
            None
        | `Again k -> if !next = 0 then None else Some (max 0 (!next - 1 - k), last))
      ops
  in
  map to_seqs (list_size (int_range 1 120) (pair op (frequencyl [ (5, false); (1, true) ])))

let print_arrivals =
  QCheck.Print.list (fun (s, last) -> string_of_int s ^ if last then "!" else "")

let show = function
  | None -> "none"
  | Some (Ack e) -> Printf.sprintf "ACK %d" e
  | Some (Nack e) -> Printf.sprintf "NACK %d" e

(* Property: under every mode and coalescing factor, each arrival's
   reply and the ePSN after it match the model, and so do the counters
   at the end. *)
let prop_matches_model =
  QCheck.Test.make ~name:"replies match the reference model" ~count:300
    (QCheck.make ~print:print_arrivals gen_arrivals)
    (fun arrivals ->
      List.for_all
        (fun (mode, ack_coalesce) ->
          let r = Receiver.create ~mode ~ack_coalesce in
          let m =
            List.fold_left
              (fun m ((seq, last_of_msg) as arrival) ->
                let got =
                  observe r
                    (Receiver.on_data r ~seq ~payload:(payload_of seq) ~last_of_msg)
                in
                let m, want = model_step m arrival in
                if got <> want || Receiver.epsn r <> m.m_epsn then
                  QCheck.Test.fail_reportf
                    "coalesce %d, seq %d: %s at ePSN %d, model %s at ePSN %d"
                    ack_coalesce seq (show got) (Receiver.epsn r) (show want)
                    m.m_epsn;
                m)
              (model_create mode ack_coalesce)
              arrivals
          in
          Receiver.acks_sent r = m.m_acks
          && Receiver.nacks_sent r = m.m_nacks
          && Receiver.delivered_bytes r = m.m_delivered
          && Receiver.ooo_arrivals r = m.m_ooo)
        [
          (Receiver.Sr, 1); (Receiver.Sr, 4); (Receiver.Gbn, 1);
          (Receiver.Gbn, 4); (Receiver.Ideal, 1); (Receiver.Ideal, 4);
        ])

let () =
  Alcotest.run "receiver"
    [
      ( "nic-sr",
        [
          Alcotest.test_case "in order" `Quick test_in_order;
          Alcotest.test_case "ooo single nack" `Quick test_sr_ooo_single_nack;
          Alcotest.test_case "new epsn new nack" `Quick test_sr_new_epsn_new_nack;
          Alcotest.test_case "dup ooo" `Quick test_sr_duplicate_ooo_no_extra_nack;
          Alcotest.test_case "stale dup" `Quick test_sr_stale_duplicate_reacks;
          QCheck_alcotest.to_alcotest prop_sr_permutation_complete;
          QCheck_alcotest.to_alcotest prop_sr_dedup;
        ] );
      ( "gbn / ideal",
        [
          Alcotest.test_case "gbn drops" `Quick test_gbn_drops_ooo;
          Alcotest.test_case "ideal" `Quick test_ideal_never_nacks;
        ] );
      ( "acking",
        [
          Alcotest.test_case "coalescing" `Quick test_ack_coalescing;
          Alcotest.test_case "last flushes" `Quick test_last_of_msg_flushes;
          Alcotest.test_case "gap fill flushes" `Quick test_gap_fill_flushes;
          Alcotest.test_case "invalid" `Quick test_invalid_coalesce;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
    ]
