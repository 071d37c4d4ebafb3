(* Conservative lockstep windows (YAWNS-style barrier PDES), and the
   drive loop serial and sharded runners share.

   Shards advance in windows no longer than the minimum cross-shard
   link latency L.  A packet that finishes serializing at time t on one
   shard arrives at its peer at t + delay >= t + L, which is strictly
   beyond the window in which it was pushed — so draining the interlink
   rings at the window barrier always schedules arrivals in the
   receiver's future, and every shard processes exactly the events a
   serial engine would, in the same per-component order.

   This module is only the per-domain advancement loop and the drive
   loop on top of it; ownership partitioning, interlink lowering and
   result merging live in lib/shard (Shard_part / Shard_net /
   Shard_run). *)

exception Aborted of int

let advance ?(abort_mask = 0) ~barrier ~lookahead ~run ~flags ~drain ~from
    ~until_ () =
  if lookahead <= 0 then invalid_arg "Shard.advance: lookahead must be positive";
  if until_ < from then invalid_arg "Shard.advance: until_ < from";
  let t = ref from in
  let combined = ref 0 in
  while !t < until_ do
    let horizon = Sim_time.min until_ (!t + lookahead) in
    run ~until:horizon;
    combined := Domain_barrier.await barrier ~flags:(flags ());
    if !combined land abort_mask <> 0 then raise (Aborted !combined);
    drain ~upto:horizon;
    t := horizon
  done;
  !combined

let check_every = Sim_time.ms 5

let drive engine ~step ~finished ~deadline ~settle =
  while (not (finished ())) && Engine.now engine < deadline do
    step ~until:(Sim_time.min deadline (Engine.now engine + check_every))
  done;
  if finished () then step ~until:(Engine.now engine + settle)
