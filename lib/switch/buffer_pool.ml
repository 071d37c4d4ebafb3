type t = {
  capacity : int;
  per_port_cap : int;
  mutable used : int;
  mutable high : int;
}

let create ~capacity ~per_port_cap =
  if capacity <= 0 || per_port_cap <= 0 then
    invalid_arg "Buffer_pool.create: capacities must be positive";
  { capacity; per_port_cap; used = 0; high = 0 }

let try_admit t ~port_bytes ~size =
  if t.used + size > t.capacity || port_bytes + size > t.per_port_cap then false
  else begin
    t.used <- t.used + size;
    if t.used > t.high then t.high <- t.used;
    true
  end

let release t size =
  t.used <- t.used - size;
  if t.used < 0 then t.used <- 0

let used t = t.used
let capacity t = t.capacity
let high_watermark t = t.high
