(* Elements are stored as Obj.t so the backing array is never
   float-specialized and one implementation serves every element type;
   the phantom ['a] restores type safety at the API boundary. *)
type 'a t = {
  mutable buf : Obj.t array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let obj_unit = Obj.repr ()

let create ?(capacity = 16) () =
  let cap = if capacity < 1 then 1 else capacity in
  { buf = Array.make cap obj_unit; head = 0; len = 0 }

let length q = q.len
let is_empty q = q.len = 0
let capacity q = Array.length q.buf

let grow q =
  let cap = Array.length q.buf in
  let ncap = Stdlib.max 16 (2 * cap) in
  let nbuf = Array.make ncap obj_unit in
  let tail = cap - q.head in
  (* Unroll the wrap: oldest element lands at index 0. *)
  let first = Stdlib.min q.len tail in
  Array.blit q.buf q.head nbuf 0 first;
  if q.len > first then Array.blit q.buf 0 nbuf first (q.len - first);
  q.buf <- nbuf;
  q.head <- 0

let push q x =
  if q.len >= Array.length q.buf then grow q;
  let cap = Array.length q.buf in
  let i = q.head + q.len in
  let i = if i >= cap then i - cap else i in
  q.buf.(i) <- Obj.repr x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Fifo.pop: empty";
  let i = q.head in
  (* The slot is left holding [x]: every reader is bounded by [len],
     so a stale slot is never read, and skipping the store skips its
     write barrier. *)
  let x = q.buf.(i) in
  let h = i + 1 in
  q.head <- (if h >= Array.length q.buf then 0 else h);
  q.len <- q.len - 1;
  Obj.obj x

let peek q =
  if q.len = 0 then invalid_arg "Fifo.peek: empty";
  Obj.obj q.buf.(q.head)

let iter f q =
  let cap = Array.length q.buf in
  for k = 0 to q.len - 1 do
    let i = q.head + k in
    let i = if i >= cap then i - cap else i in
    f (Obj.obj q.buf.(i))
  done

let get q i =
  if i < 0 || i >= q.len then invalid_arg "Fifo.get: out of bounds";
  let cap = Array.length q.buf in
  let j = q.head + i in
  let j = if j >= cap then j - cap else j in
  Obj.obj q.buf.(j)

(* The bound is read once, at entry: elements [f] pushes land after the
   batch and are not drained. *)
let drain q f =
  for _ = 1 to q.len do
    f (pop q)
  done

(* Like [pop], leaves the stale slots in place. *)
let clear q =
  q.head <- 0;
  q.len <- 0
