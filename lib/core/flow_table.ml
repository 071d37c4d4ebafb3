type entry = {
  queue : Psn_queue.t;
  mutable bepsn : Psn.t;
  mutable valid : bool;
}

(* Dense storage indexed by the flow's interned id: per-packet lookups
   ([find_or_add_id], fed by [Packet.conn_id]) are a single array read
   straight to the entry; the hash is paid only by id-less entry points,
   which go through the global interner.  An empty slot holds [empty],
   recognised by physical equality, so no [option] box sits between the
   lookup and the entry.  Arrays are grown on demand and never shrink —
   ids are small and dense by construction. *)
type t = {
  queue_capacity : int;
  mutable entries : entry array;  (* interned flow id -> entry or [empty] *)
  mutable flows : Flow_id.t array;  (* the flow of each live entry *)
  mutable count : int;
}

(* Never handed out: every read compares against it first. *)
let empty = { queue = Psn_queue.create ~capacity:1; bepsn = Psn.zero; valid = false }

let entry_bytes = 20

let create ~queue_capacity =
  if queue_capacity < 1 then invalid_arg "Flow_table.create: queue_capacity";
  { queue_capacity; entries = [||]; flows = [||]; count = 0 }

(* [flow] pads the new tail of [flows]: a slot's flow is read only while
   its entry is live. *)
let grow t id flow =
  let len = Array.length t.entries in
  let ncap = ref (Stdlib.max 16 (2 * len)) in
  while id >= !ncap do
    ncap := 2 * !ncap
  done;
  let entries = Array.make !ncap empty and flows = Array.make !ncap flow in
  Array.blit t.entries 0 entries 0 len;
  Array.blit t.flows 0 flows 0 len;
  t.entries <- entries;
  t.flows <- flows

let find_or_add_id t ~id flow =
  if id >= Array.length t.entries then grow t id flow;
  let e = Array.unsafe_get t.entries id in
  if e != empty then e
  else begin
    let e =
      {
        queue = Psn_queue.create ~capacity:t.queue_capacity;
        bepsn = Psn.zero;
        valid = false;
      }
    in
    t.entries.(id) <- e;
    t.flows.(id) <- flow;
    t.count <- t.count + 1;
    e
  end

let find_or_add t flow = find_or_add_id t ~id:(Flow_id.intern flow) flow

let find t flow =
  match Flow_id.lookup_interned flow with
  | Some id when id < Array.length t.entries && t.entries.(id) != empty ->
      Some t.entries.(id)
  | Some _ | None -> None

let remove t flow =
  match Flow_id.lookup_interned flow with
  | Some id when id < Array.length t.entries && t.entries.(id) != empty ->
      t.entries.(id) <- empty;
      t.count <- t.count - 1
  | Some _ | None -> ()

let size t = t.count

(* Iteration order is interned-id (first-touch) order: deterministic,
   unlike the hashed layout this replaces. *)
let iter f t =
  Array.iteri (fun id e -> if e != empty then f t.flows.(id) e) t.entries

let memory_bytes t =
  let acc = ref 0 in
  iter (fun _ e -> acc := !acc + entry_bytes + Psn_queue.capacity e.queue) t;
  !acc
