(* Per-source-ToR spraying state for the stateful arena policies
   (REPS / PRIME / Sprinklers).  One [t] lives inside each switch; flows
   are keyed by interned [conn_id] (dense per run, so a growable slot
   array suffices).  Module-level counters feed the policy invariant
   oracles; every fabric build resets them ([reset_globals], called by
   Fabric_core.create with the packet uid counter). *)

let ring_cap = 16
let tainted_cap = 32

(* Sprinklers: a fresh stripe is a few MTUs; queue differential is added
   on top so the new output's backlog drains before the stripe ends. *)
let stripe_quantum = 6144

type flow = {
  (* REPS: FIFO ring of recyclable (clean-ACKed) entropies. *)
  ring : int array;
  mutable rhead : int;
  mutable rlen : int;
  (* REPS: bounded set of entropies whose last echo saw ECN. *)
  tainted : int array;
  mutable tlen : int;
  mutable tnext : int;
  (* PRIME: congestion-adaptive entropy part. *)
  mutable adapt : int;
  (* Sprinklers: current output and bytes left in its stripe. *)
  mutable cur : int;
  mutable stripe_rem : int;
}

let new_flow () =
  {
    ring = Array.make ring_cap 0;
    rhead = 0;
    rlen = 0;
    tainted = Array.make tainted_cap 0;
    tlen = 0;
    tnext = 0;
    adapt = 0;
    cur = -1;
    stripe_rem = 0;
  }

type t = { mutable flows : flow option array; mutable rot : int }

let create () = { flows = [||]; rot = 0 }

let flow t id =
  let len = Array.length t.flows in
  if id >= len then begin
    let narr =
      Array.make (Stdlib.max (id + 1) (Stdlib.max 16 (2 * len))) None
    in
    Array.blit t.flows 0 narr 0 len;
    t.flows <- narr
  end;
  match t.flows.(id) with
  | Some f -> f
  | None ->
      let f = new_flow () in
      t.flows.(id) <- Some f;
      f

(* --- Invariant counters (process-wide, reset per run) ---------------- *)

type globals = {
  mutable reps_recycled : int;
  mutable reps_fresh : int;
  mutable reps_tainted_recycled : int;
  mutable prime_bumps : int;
  mutable sprinkler_switches : int;
  mutable spritz_picks : int;
}

let globals =
  {
    reps_recycled = 0;
    reps_fresh = 0;
    reps_tainted_recycled = 0;
    prime_bumps = 0;
    sprinkler_switches = 0;
    spritz_picks = 0;
  }

let reset_globals () =
  globals.reps_recycled <- 0;
  globals.reps_fresh <- 0;
  globals.reps_tainted_recycled <- 0;
  globals.prime_bumps <- 0;
  globals.sprinkler_switches <- 0;
  globals.spritz_picks <- 0

let counters () =
  [
    ("reps_recycled", globals.reps_recycled);
    ("reps_fresh", globals.reps_fresh);
    ("reps_tainted_recycled", globals.reps_tainted_recycled);
    ("prime_bumps", globals.prime_bumps);
    ("sprinkler_switches", globals.sprinkler_switches);
    ("spritz_picks", globals.spritz_picks);
  ]

let note_spritz_pick () = globals.spritz_picks <- globals.spritz_picks + 1

(* --- REPS ------------------------------------------------------------ *)

let ring_push f e =
  if f.rlen = ring_cap then begin
    (* Cache window full: the oldest recyclable entropy ages out. *)
    f.rhead <- (f.rhead + 1) mod ring_cap;
    f.rlen <- f.rlen - 1
  end;
  f.ring.((f.rhead + f.rlen) mod ring_cap) <- e;
  f.rlen <- f.rlen + 1

let ring_pop f =
  let e = f.ring.(f.rhead) in
  f.rhead <- (f.rhead + 1) mod ring_cap;
  f.rlen <- f.rlen - 1;
  e

let ring_evict f e =
  let n = f.rlen in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let v = f.ring.((f.rhead + i) mod ring_cap) in
    if v <> e then begin
      f.ring.((f.rhead + !kept) mod ring_cap) <- v;
      incr kept
    end
  done;
  f.rlen <- !kept

let tainted_mem f e =
  let rec go i = i < f.tlen && (f.tainted.(i) = e || go (i + 1)) in
  go 0

let tainted_add f e =
  if not (tainted_mem f e) then
    if f.tlen < tainted_cap then begin
      f.tainted.(f.tlen) <- e;
      f.tlen <- f.tlen + 1
    end
    else begin
      f.tainted.(f.tnext) <- e;
      f.tnext <- (f.tnext + 1) mod tainted_cap
    end

let tainted_remove f e =
  let rec find i =
    if i >= f.tlen then -1 else if f.tainted.(i) = e then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    f.tlen <- f.tlen - 1;
    f.tainted.(i) <- f.tainted.(f.tlen);
    if f.tnext > f.tlen then f.tnext <- 0
  end

let reps_next t ~conn_id ~rng =
  let f = flow t conn_id in
  if f.rlen > 0 then begin
    let e = ring_pop f in
    globals.reps_recycled <- globals.reps_recycled + 1;
    (* By construction tainted entropies were evicted from the ring;
       this counter is the invariant the oracle asserts stays 0. *)
    if tainted_mem f e then
      globals.reps_tainted_recycled <- globals.reps_tainted_recycled + 1;
    e
  end
  else begin
    globals.reps_fresh <- globals.reps_fresh + 1;
    Rng.int rng 0x10000
  end

let reps_feedback t ~conn_id ~entropy ~ce =
  if entropy >= 0 then begin
    let f = flow t conn_id in
    if ce then begin
      ring_evict f entropy;
      tainted_add f entropy
    end
    else begin
      tainted_remove f entropy;
      ring_push f entropy
    end
  end

(* --- PRIME ----------------------------------------------------------- *)

let prime_adapt t ~conn_id = (flow t conn_id).adapt

let prime_feedback t ~conn_id ~ce =
  if ce then begin
    (flow t conn_id).adapt <- (flow t conn_id).adapt + 1;
    globals.prime_bumps <- globals.prime_bumps + 1
  end

(* --- Sprinklers ------------------------------------------------------ *)

(* No-overtake argument: switching output a -> b at a stripe boundary
   cannot reorder if q_b >= q_a at decision time (equal rates/delays),
   so the eligible set at a boundary is every output at least as loaded
   as the current one; we take the least loaded of those, rotating
   through ties so symmetric fabrics still spread round-robin. *)
let sprinkler_choose t ~conn_id ~bytes ~n ~load =
  let f = flow t conn_id in
  if f.cur >= 0 && f.cur < n && f.stripe_rem > 0 then begin
    f.stripe_rem <- f.stripe_rem - bytes;
    f.cur
  end
  else begin
    let loads = Array.init n load in
    let min_all = Array.fold_left Stdlib.min max_int loads in
    let floor_ = if f.cur >= 0 && f.cur < n then loads.(f.cur) else min_all in
    let best = ref max_int in
    for j = 0 to n - 1 do
      if loads.(j) >= floor_ && loads.(j) < !best then best := loads.(j)
    done;
    let count = ref 0 in
    for j = 0 to n - 1 do
      if loads.(j) = !best then incr count
    done;
    let pick = t.rot mod !count in
    t.rot <- t.rot + 1;
    let choice = ref 0 and seen = ref 0 in
    (try
       for j = 0 to n - 1 do
         if loads.(j) = !best then begin
           if !seen = pick then begin
             choice := j;
             raise Exit
           end;
           incr seen
         end
       done
     with Exit -> ());
    let choice = !choice in
    if f.cur >= 0 && choice <> f.cur then
      globals.sprinkler_switches <- globals.sprinkler_switches + 1;
    f.cur <- choice;
    f.stripe_rem <- stripe_quantum + (loads.(choice) - min_all) - bytes;
    choice
  end
