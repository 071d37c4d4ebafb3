type handle = int
type slot = int

let none : handle = -1

(* Callback ids are >= 0; [cancel] overwrites a live slot's id with this
   sentinel. *)
let cancelled = -1

(* A handle packs (generation lsl slot_bits) lor slot.  24 bits of slot
   index bounds the arena at ~16.7M *simultaneous* events — far beyond
   any simulated working set — and leaves 38 generation bits on 63-bit
   ints, enough that a slot reused once per simulated nanosecond would
   take years of sim time to wrap. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let epoch_shift = 24

type t = {
  (* Near-future band: a three-level timing wheel covering the cursor's
     current 2^24-tick (~16.7ms) epoch.  Its level 0 holds the cursor's
     1024-tick window and the next, so the dense fixed-offset events
     (tx completions, propagations, pacing ticks) file and pop there in
     O(1) without a cascade, and every periodic timer (DCQCN alpha/TI,
     RTO) still files into the wheel; see DESIGN.md §15. *)
  wheel : Timing_wheel.t;
  (* Overflow: min-heap over (time, seq), structure-of-arrays — the sift
     loops compare and shuffle unboxed ints only.  Holds far-future
     events beyond the epoch (migrated down when the cursor's epoch
     arrives) and events scheduled behind the wheel cursor (adds between
     two [Engine.run ~until] windows, after the horizon peek already
     advanced the cursor; popped directly). *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  (* Cached next-event decision, shared by [peek_time_unsafe] and [pop];
     invalidated by pops and by adds below the cached time. *)
  mutable has_next : bool;
  mutable next_is_wheel : bool;
  mutable next_time : int;
  mutable next_slot : int;
  (* Wheel-vs-heap routing counters (bench-engine's hit-ratio gate). *)
  mutable wheel_adds : int;
  mutable heap_adds : int;
  (* Slot arena: per-event payload, recycled through [free_head].  A free
     slot's callback id is never read, so [cbs] doubles as the freelist:
     a free slot holds the next free slot's index (-1 ends the list). *)
  mutable cbs : int array;
  mutable objs : Obj.t array;
  mutable gens : int array;
  mutable free_head : int;
}

let obj_unit = Obj.repr ()

let create ?(capacity = 256) () =
  let cap = if capacity < 1 then 1 else capacity in
  {
    wheel = Timing_wheel.create ~capacity:cap ();
    times = Array.make cap 0;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    size = 0;
    next_seq = 0;
    has_next = false;
    next_is_wheel = false;
    next_time = 0;
    next_slot = 0;
    wheel_adds = 0;
    heap_adds = 0;
    cbs = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
    objs = Array.make cap obj_unit;
    gens = Array.make cap 0;
    free_head = 0;
  }

let extend src ncap pad =
  let dst = Array.make ncap pad in
  Array.blit src 0 dst 0 (Array.length src);
  dst

let grow_heap q =
  let ncap = Stdlib.max 64 (2 * Array.length q.times) in
  q.times <- extend q.times ncap 0;
  q.seqs <- extend q.seqs ncap 0;
  q.slots <- extend q.slots ncap 0

let grow_arena q =
  let cap = Array.length q.cbs in
  let ncap = Stdlib.max 64 (2 * cap) in
  if ncap > slot_mask + 1 then failwith "Event_queue: slot arena overflow";
  q.cbs <- extend q.cbs ncap 0;
  q.objs <- extend q.objs ncap obj_unit;
  q.gens <- extend q.gens ncap 0;
  for i = cap to ncap - 1 do
    q.cbs.(i) <- (if i = ncap - 1 then -1 else i + 1)
  done;
  q.free_head <- cap;
  (* The wheel's intrusive node array is indexed by arena slot id. *)
  Timing_wheel.ensure_capacity q.wheel ncap

(* Binary min-heap over (time, seq).  Both sifts percolate a hole: the
   moving element's (time, seq, slot) stay in arguments while the
   entries it passes shift by one level. *)
let less q i ~time ~seq =
  let ti = Array.unsafe_get q.times i in
  ti < time || (ti = time && Array.unsafe_get q.seqs i < seq)

let set q i ~time ~seq ~slot =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.slots.(i) <- slot

let move q ~src ~dst =
  set q dst ~time:q.times.(src) ~seq:q.seqs.(src) ~slot:q.slots.(src)

let rec sift_up q i ~time ~seq ~slot =
  let parent = (i - 1) / 2 in
  if i > 0 && not (less q parent ~time ~seq) then begin
    move q ~src:parent ~dst:i;
    sift_up q parent ~time ~seq ~slot
  end
  else set q i ~time ~seq ~slot

let rec sift_down q i ~time ~seq ~slot =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < q.size
       && less q (l + 1) ~time:q.times.(l) ~seq:q.seqs.(l)
    then l + 1
    else l
  in
  if c < q.size && less q c ~time ~seq then begin
    move q ~src:c ~dst:i;
    sift_down q c ~time ~seq ~slot
  end
  else set q i ~time ~seq ~slot

let heap_push q ~time ~seq ~slot =
  if q.size >= Array.length q.times then grow_heap q;
  let i = q.size in
  q.size <- q.size + 1;
  sift_up q i ~time ~seq ~slot

(* Remove the heap minimum without recycling its arena slot (the event
   may be migrating into the wheel rather than dying). *)
let heap_remove_top q =
  q.size <- q.size - 1;
  let last = q.size in
  if last > 0 then
    sift_down q 0 ~time:q.times.(last) ~seq:q.seqs.(last) ~slot:q.slots.(last)

let add q ~time ~cb ~obj =
  if q.free_head < 0 then grow_arena q;
  let s = q.free_head in
  q.free_head <- q.cbs.(s);
  q.cbs.(s) <- cb;
  (* A freed slot keeps its last payload ([release] leaves it), and the
     freelist is LIFO: a packet's tx-done -> propagate chain reuses the
     slot it just freed, so the slot often already holds [obj] and the
     [Obj.t] store and its write barrier are skipped (57% of adds on
     perfbench allreduce8, 79% on incast32).  A unit payload landing on
     a slot that last held a packet pays a store the old restore-unit
     scheme skipped, but that scheme paid one in every [release]. *)
  if q.objs.(s) != obj then q.objs.(s) <- obj;
  if Timing_wheel.add q.wheel ~time s then q.wheel_adds <- q.wheel_adds + 1
  else begin
    (* Only heap events draw a sequence number: it orders them against
       each other.  Wheel events need none (a wheel slot's order is
       insertion order), and a wheel event never ties with a heap event
       ([resolve_next]), so the heap's numbering need not count them. *)
    let seq = q.next_seq in
    q.next_seq <- seq + 1;
    heap_push q ~time ~seq ~slot:s;
    q.heap_adds <- q.heap_adds + 1
  end;
  if q.has_next && time < q.next_time then q.has_next <- false;
  (q.gens.(s) lsl slot_bits) lor s

(* A slot's generation only matches handles minted for its current
   occupant: [release] bumps it, so stale handles (and [none]) fail the
   comparison and can never touch a recycled slot. *)
let live_slot q h =
  if h < 0 then -1
  else begin
    let s = h land slot_mask in
    if s < Array.length q.gens && q.gens.(s) = h asr slot_bits then s else -1
  end

let cancel q h =
  let s = live_slot q h in
  if s >= 0 then q.cbs.(s) <- cancelled

let is_pending q h =
  let s = live_slot q h in
  s >= 0 && q.cbs.(s) <> cancelled

(* Resolve the next event across the wheel and the heap.

   The wheel wins ties: a heap event at the same time as a wheel event
   is necessarily a behind-cursor late add (between two run windows),
   which was scheduled after — and so sequences after — anything the
   wheel holds at that time (DESIGN.md §15 has the full argument).  When the wheel
   is empty and the heap's earliest event lies in an epoch at or ahead
   of the cursor, that whole epoch migrates down: heap pops come out in
   (time, seq) order, so the wheel's append-only slots receive them in
   exactly the order they must fire.  Requires [not q.has_next]; the
   cached case is [ensure_next]'s inlined check. *)
let rec resolve_next q =
  let wt = Timing_wheel.next_time q.wheel in
  if wt >= 0 then
    if q.size > 0 && Array.unsafe_get q.times 0 < wt then set_heap_next q
    else begin
      q.next_is_wheel <- true;
      q.next_time <- wt;
      q.next_slot <- Timing_wheel.peek_val q.wheel;
      q.has_next <- true
    end
  else if q.size > 0 then begin
    let ht = q.times.(0) in
    if ht >= Timing_wheel.cursor q.wheel then begin
      Timing_wheel.jump q.wheel ht;
      let epoch = ht lsr epoch_shift in
      while
        q.size > 0 && Array.unsafe_get q.times 0 lsr epoch_shift = epoch
      do
        let tm = q.times.(0) and s = q.slots.(0) in
        heap_remove_top q;
        let covered = Timing_wheel.add q.wheel ~time:tm s in
        assert covered
      done;
      resolve_next q
    end
    else set_heap_next q
  end

and set_heap_next q =
  q.next_is_wheel <- false;
  q.next_time <- q.times.(0);
  q.next_slot <- q.slots.(0);
  q.has_next <- true

let[@inline] ensure_next q = if not q.has_next then resolve_next q

let[@inline] peek_time_unsafe q =
  ensure_next q;
  q.next_time

let pop q =
  ensure_next q;
  if q.next_is_wheel then begin
    let s = Timing_wheel.pop q.wheel in
    (* Same-slot fast path: events left in the cursor slot carry the
       exact time just served and still beat the heap (a cache-valid
       wheel decision means the heap minimum is strictly later — ties
       are structurally impossible, see [resolve_next]), so the cached
       decision survives with just a new head. *)
    if Timing_wheel.cursor_occupied q.wheel then
      q.next_slot <- Timing_wheel.peek_val q.wheel
    else q.has_next <- false;
    s
  end
  else begin
    let s = q.slots.(0) in
    heap_remove_top q;
    q.has_next <- false;
    s
  end

let[@inline] slot_cb q s = Array.unsafe_get q.cbs s
let[@inline] slot_obj q s = Array.unsafe_get q.objs s

let release q s =
  q.gens.(s) <- q.gens.(s) + 1;
  (* The payload stays in [objs.(s)] until [add] overwrites it: a freed
     slot's payload is never read. *)
  q.cbs.(s) <- q.free_head;
  q.free_head <- s

let size q = q.size + Timing_wheel.count q.wheel
let is_empty q = q.size = 0 && Timing_wheel.is_empty q.wheel

let peek_time q =
  if is_empty q then None
  else begin
    ensure_next q;
    Some q.next_time
  end

let capacity q = Array.length q.times
let wheel_adds q = q.wheel_adds
let heap_adds q = q.heap_adds

let clear q =
  Timing_wheel.drain_all q.wheel (fun s -> release q s);
  for i = 0 to q.size - 1 do
    release q q.slots.(i)
  done;
  q.size <- 0;
  q.has_next <- false
