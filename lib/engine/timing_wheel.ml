(* Three-level hierarchical timing wheel over integer nanosecond ticks.

   Time is cut into 1024-tick {e windows}, 256 windows make a 2^18-tick
   {e chunk} and 64 chunks a 2^24-tick (~16.7ms) {e epoch}.  With [cw]
   the cursor's window:

   - level 0 is 2048 one-tick slots (slot = time land 2047) and holds
     every pending time in windows [cw] and [cw+1]: two halves of 1024
     slots, each the current occupant of one window;
   - level 1 is 256 slots of one window and holds the windows after
     [cw+1] that lie in [cw+1]'s chunk;
   - level 2 is 64 slots of one chunk and holds the later chunks of the
     epoch.

   So every delay below 1024 ticks (each serialization and propagation
   in the simulator) files straight into level 0 and is never relinked.
   Whenever the cursor enters a window [w], the half that held [w-1] is
   free and window [w+1] is cascaded into it ({e fill-ahead}), first
   cascading level 2's next chunk into level 1 if [w+1] opens it.  When
   level 0 is empty the cursor jumps to the next occupied level-1
   window (or level 2's next chunk, then its first window), cascades it
   and fills the one after.  The epoch is wide enough that every
   periodic timer in the simulator (DCQCN alpha/TI, NACK hold-off, RTO)
   files into the wheel rather than the overflow heap.  Times outside
   the epoch (or behind the cursor) are not coverable — [add] refuses
   them and the caller keeps those events in its overflow heap (see
   {!Event_queue}).

   The wheel is intrusive: the payload value [s] passed to [add] (an
   {!Event_queue} arena slot id, < 2^24) doubles as the node index, so
   the wheel allocates nothing and keeps no freelist.  A node is one int
   in [nodes]: the time relative to the epoch base (24 bits, shifted
   left 24) packed with the next-in-slot link (24 bits, [nil] when
   last).  Slot lists pack head and tail the same way in one int of
   [l0_ht]/[l1_ht]/[l2_ht] (-1 when empty), so the steady-state add/pop
   path touches three cache lines: the node, the slot word, and the
   (hot) occupancy bitmap.

   A level-0 slot holds exactly one timestamp: the two resident windows
   are consecutive, so they never share a slot.  Append order is
   insertion order, which is how the wheel preserves the engine's
   (time, seq) FIFO tie-break without ever storing or comparing
   sequence numbers: a window enters level 0 exactly once, by the
   cascade that fills it, which appends its events in insertion order,
   and only after that can a direct add reach it (see the ordering
   argument in DESIGN.md §15). *)

let win_shift = 10
let win_mask = (1 lsl win_shift) - 1
let l0_mask = (2 lsl win_shift) - 1
let chunk_shift = 18
let l1_mask = (1 lsl (chunk_shift - win_shift)) - 1
let epoch_shift = 24
let l2_mask = (1 lsl (epoch_shift - chunk_shift)) - 1
let rel_max = (1 lsl epoch_shift) - 1
let nil = 0xFFFFFF (* 24-bit null link; arena slots are < 2^24 *)

type t = {
  (* nodes.(s) = (rel_time lsl 24) lor next; valid only while [s] is
     wheel-resident.  Indexed by the caller's slot id — grown via
     [ensure_capacity] alongside the caller's arena. *)
  mutable nodes : int array;
  (* Slot words: head lor (tail lsl 24), -1 when empty. *)
  l0_ht : int array;
  l1_ht : int array;
  l2_ht : int array;
  (* Occupancy bitmaps as words of 32 bits, plus one summary bit per
     word: summary word [k] covers bitmap words [32k, 32k+32), so level
     0 has one summary word per half and levels 1 and 2 one each.  A
     scan skips empty runs 32 slots at a time and never walks empty
     words. *)
  l0_bits : int array;
  l1_bits : int array;
  l2_bits : int array;
  l0_sum : int array;
  l1_sum : int array;
  l2_sum : int array;
  mutable cursor : int;  (* absolute tick; every resident time >= cursor *)
  mutable epoch_base : int;  (* (cursor lsr 24) lsl 24, kept by [jump] *)
  mutable count : int;
}

let create ?(capacity = 256) () =
  let cap = if capacity < 16 then 16 else capacity in
  let level slots = (Array.make slots (-1), Array.make ((slots + 31) / 32) 0) in
  let l0_ht, l0_bits = level (l0_mask + 1) in
  let l1_ht, l1_bits = level (l1_mask + 1) in
  let l2_ht, l2_bits = level (l2_mask + 1) in
  {
    nodes = Array.make cap 0;
    l0_ht;
    l1_ht;
    l2_ht;
    l0_bits;
    l1_bits;
    l2_bits;
    l0_sum = Array.make 2 0;
    l1_sum = Array.make 1 0;
    l2_sum = Array.make 1 0;
    cursor = 0;
    epoch_base = 0;
    count = 0;
  }

let count t = t.count
let is_empty t = t.count = 0
let cursor t = t.cursor

let ensure_capacity t n =
  let cap = Array.length t.nodes in
  if n > cap then begin
    let ncap = ref (2 * cap) in
    while !ncap < n do
      ncap := 2 * !ncap
    done;
    let dst = Array.make !ncap 0 in
    Array.blit t.nodes 0 dst 0 cap;
    t.nodes <- dst
  end

(* First set bit of a non-zero 32-bit word: isolate the lowest bit and
   index a table via the classic de Bruijn multiply.  The isolated bit
   is at most 2^31, so the 63-bit product is exact and the explicit
   [land 0xFFFFFFFF] reproduces the 32-bit truncation the sequence
   relies on.  Branch-free, and — unlike a [mod]-by-prime residue
   table — free of the idiv that ocamlopt emits for a non-power-of-two
   modulus (this runs several times per event pop). *)
let debruijn32 = 0x077CB531

let ffs_tbl =
  let tbl = Array.make 32 (-1) in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn32) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ffs w =
  Array.unsafe_get ffs_tbl ((((w land -w) * debruijn32) land 0xFFFFFFFF) lsr 27)

(* Lowest occupied index >= [from] among the slots that summary word [k]
   covers (slots [1024k, 1024k+1024), [from] relative to the first), or
   -1.  [from] must lie within the level.  After the (usually hitting)
   first-word probe the scan is a single ffs on the summary — never a
   walk over empty words. *)
let scan bits sum k from =
  let base = k lsl 5 in
  let w = from lsr 5 in
  let masked = Array.unsafe_get bits (base + w) land (-1 lsl (from land 31)) in
  if masked <> 0 then (w lsl 5) lor ffs masked
  else begin
    let rest = Array.unsafe_get sum k land (-2 lsl w) in
    if rest = 0 then -1
    else begin
      let w' = ffs rest in
      (w' lsl 5) lor ffs (Array.unsafe_get bits (base + w'))
    end
  end

(* [scan] from the first slot. *)
let first bits sum k =
  let m = Array.unsafe_get sum k in
  if m = 0 then -1
  else begin
    let w = ffs m in
    (w lsl 5) lor ffs (Array.unsafe_get bits ((k lsl 5) + w))
  end

let clear_bit bits sum i =
  let w = i lsr 5 in
  let word = bits.(w) land lnot (1 lsl (i land 31)) in
  bits.(w) <- word;
  if word = 0 then begin
    let k = w lsr 5 in
    sum.(k) <- sum.(k) land lnot (1 lsl (w land 31))
  end

let[@inline] append t ht bits sum i s rel =
  Array.unsafe_set t.nodes s ((rel lsl 24) lor nil);
  let v = Array.unsafe_get ht i in
  if v < 0 then begin
    ht.(i) <- s lor (s lsl 24);
    let w = i lsr 5 in
    bits.(w) <- bits.(w) lor (1 lsl (i land 31));
    let k = w lsr 5 in
    sum.(k) <- sum.(k) lor (1 lsl (w land 31))
  end
  else begin
    let tail = v lsr 24 in
    t.nodes.(tail) <- (Array.unsafe_get t.nodes tail land lnot nil) lor s;
    ht.(i) <- (v land nil) lor (s lsl 24)
  end

let add t ~time s =
  if time < t.cursor then false
  else begin
    let rel = time - t.epoch_base in
    if rel > rel_max then false
    else begin
      let nw = (t.cursor lsr win_shift) + 1 in
      if time lsr win_shift <= nw then
        append t t.l0_ht t.l0_bits t.l0_sum (time land l0_mask) s rel
      else if time lsr chunk_shift = nw lsr (chunk_shift - win_shift) then
        append t t.l1_ht t.l1_bits t.l1_sum
          ((rel lsr win_shift) land l1_mask) s rel
      else append t t.l2_ht t.l2_bits t.l2_sum (rel lsr chunk_shift) s rel;
      t.count <- t.count + 1;
      true
    end
  end

(* Empty slot [i] of a level; return the head of the list it held
   ([nil] if none). *)
let take ht bits sum i =
  let v = Array.unsafe_get ht i in
  if v < 0 then nil
  else begin
    ht.(i) <- -1;
    clear_bit bits sum i;
    v land nil
  end

(* Redistribute a list taken from the level above.  Walk order is append
   order, so each destination slot receives its sublist in the original
   insertion order.  The relinkers recurse at top level rather than
   looping over a [ref] — cascades run every window and must not
   allocate. *)
let rec relink0 t node =
  if node <> nil then begin
    let packed = Array.unsafe_get t.nodes node in
    let rel = packed lsr 24 in
    append t t.l0_ht t.l0_bits t.l0_sum (rel land l0_mask) node rel;
    relink0 t (packed land nil)
  end

let rec relink1 t node =
  if node <> nil then begin
    let packed = Array.unsafe_get t.nodes node in
    let rel = packed lsr 24 in
    append t t.l1_ht t.l1_bits t.l1_sum ((rel lsr win_shift) land l1_mask)
      node rel;
    relink1 t (packed land nil)
  end

(* Fill-ahead: the cursor has just entered window [w - 1], so the level-0
   half that held [w - 2] is empty; cascade window [w] into it, first
   bringing [w]'s chunk down from level 2 if [w] opens it.  A window in
   the next epoch stays where [jump] will find it: in the caller's heap. *)
let fill t w =
  if w lsr (epoch_shift - win_shift) = t.epoch_base lsr epoch_shift then begin
    if w land l1_mask = 0 then
      relink1 t
        (take t.l2_ht t.l2_bits t.l2_sum
           ((w lsr (chunk_shift - win_shift)) land l2_mask));
    relink0 t (take t.l1_ht t.l1_bits t.l1_sum (w land l1_mask))
  end

(* Advance the cursor to the earliest resident time: the rest of the
   cursor's window, else the next window (entering it fills the one
   after), else a sparse jump.  Never leaves the current epoch (epoch
   entry is the caller's [jump], which also migrates heap overflow). *)
let rec advance t =
  let c = t.cursor in
  let cw = c lsr win_shift in
  let s = scan t.l0_bits t.l0_sum (cw land 1) (c land win_mask) in
  if s >= 0 then begin
    let c' = c land lnot win_mask lor s in
    t.cursor <- c';
    c'
  end
  else begin
    let s = first t.l0_bits t.l0_sum ((cw + 1) land 1) in
    if s >= 0 then begin
      t.cursor <- ((cw + 1) lsl win_shift) lor s;
      fill t (cw + 2);
      t.cursor
    end
    else sparse_jump t (cw + 1)
  end

(* Level 0 is empty, [nw] its upper window.  Enter the next occupied
   level-1 window (those after [nw] in its chunk); failing that, bring
   level 2's next chunk down and enter its first occupied window. *)
and sparse_jump t nw =
  let from = (nw land l1_mask) + 1 in
  let j = if from > l1_mask then -1 else scan t.l1_bits t.l1_sum 0 from in
  if j >= 0 then enter t (nw land lnot l1_mask lor j)
  else begin
    let from = ((nw lsr (chunk_shift - win_shift)) land l2_mask) + 1 in
    let k = if from > l2_mask then -1 else scan t.l2_bits t.l2_sum 0 from in
    (* count > 0 but all levels empty is an invariant break. *)
    assert (k >= 0);
    relink1 t (take t.l2_ht t.l2_bits t.l2_sum k);
    enter t
      ((t.epoch_base lsr win_shift)
      lor (k lsl (chunk_shift - win_shift))
      lor first t.l1_bits t.l1_sum 0)
  end

and enter t w =
  relink0 t (take t.l1_ht t.l1_bits t.l1_sum (w land l1_mask));
  t.cursor <- w lsl win_shift;
  fill t (w + 1);
  advance t

let next_time t = if t.count = 0 then -1 else advance t

(* Payload of the head event at the cursor slot; requires a preceding
   [next_time] that returned >= 0. *)
let peek_val t = t.l0_ht.(t.cursor land l0_mask) land nil

let pop t =
  let slot = t.cursor land l0_mask in
  let v = t.l0_ht.(slot) in
  let n = v land nil in
  let nx = Array.unsafe_get t.nodes n land nil in
  if nx = nil then begin
    t.l0_ht.(slot) <- -1;
    clear_bit t.l0_bits t.l0_sum slot
  end
  else t.l0_ht.(slot) <- (v land lnot nil) lor nx;
  t.count <- t.count - 1;
  n

(* Is the cursor's level-0 slot still occupied?  After a [pop], a [true]
   here means the next event shares the exact time just served — the
   caller can keep its cached decision and skip the rescan. *)
let[@inline] cursor_occupied t = t.l0_ht.(t.cursor land l0_mask) >= 0

(* Move the cursor forward to the start of [time]'s epoch so a migration
   of that epoch's overflow events becomes coverable.  Only meaningful on
   an empty wheel (nothing can be left behind, and no window needs
   filling); the cursor never moves backwards. *)
let jump t time =
  assert (t.count = 0);
  let epoch_start = (time lsr epoch_shift) lsl epoch_shift in
  if epoch_start > t.cursor then begin
    t.cursor <- epoch_start;
    t.epoch_base <- epoch_start
  end

let drain_all t f =
  let drain_level ht bits sum =
    Array.iter
      (fun v ->
        let n = ref (if v < 0 then nil else v land nil) in
        while !n <> nil do
          let node = !n in
          n := t.nodes.(node) land nil;
          f node
        done)
      ht;
    Array.fill ht 0 (Array.length ht) (-1);
    Array.fill bits 0 (Array.length bits) 0;
    Array.fill sum 0 (Array.length sum) 0
  in
  drain_level t.l0_ht t.l0_bits t.l0_sum;
  drain_level t.l1_ht t.l1_bits t.l1_sum;
  drain_level t.l2_ht t.l2_bits t.l2_sum;
  t.count <- 0
