type t = { src : int; dst : int; qpn : int }

let make ~src ~dst ~qpn = { src; dst; qpn }
let equal a b = a.src = b.src && a.dst = b.dst && a.qpn = b.qpn
let compare = Stdlib.compare

let hash t =
  let h = (t.src * 1_000_003) lxor (t.dst * 998_244_353) lxor (t.qpn * 0x9E3779B9) in
  h land max_int

let pp ppf t = Format.fprintf ppf "%d->%d/qp%d" t.src t.dst t.qpn

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* --- Interning --------------------------------------------------------- *)

(* Flows get small dense ids in first-touch order, so per-flow state on
   the hot path (Themis-D flow table, RNIC QP dispatch) indexes plain
   arrays instead of hashing the triple per packet.  The table is global
   mutable state exactly like [Packet.uid_counter]: campaign jobs and
   fuzz runs reset it at the same boundaries, which keeps id assignment
   (and therefore every downstream array layout) identical between
   serial and forked executions of the same job. *)

type interner_state = { tbl : int Table.t; mutable next : int }

let interner = { tbl = Table.create 256; next = 0 }

let intern fl =
  match Table.find_opt interner.tbl fl with
  | Some id -> id
  | None ->
      let id = interner.next in
      interner.next <- id + 1;
      Table.add interner.tbl fl id;
      id

let lookup_interned fl = Table.find_opt interner.tbl fl
let interned_count () = interner.next

let reset_interner () =
  Table.reset interner.tbl;
  interner.next <- 0

let intern_snapshot () =
  Table.fold (fun fl id acc -> (id, fl) :: acc) interner.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
