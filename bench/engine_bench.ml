(* Engine hot-path benchmark: events/sec, minor-heap words per simulated
   event and wall-clock for the quick/incast presets (DESIGN.md §10),
   plus the fabric build cost (§11).

   Emits BENCH_engine.json so perf is tracked PR-over-PR; every number
   is re-measured on every invocation, and only same-box A/B runs are
   comparable.  The incast run doubles as the trace fingerprint: it
   must process exactly 330,667 events (756 under `--smoke`), or the
   bench fails.  `--smoke` runs a tiny iteration count and validates the
   emitted JSON — it gates `make check` without costing CI time; real
   numbers come from `make bench-engine`.  `--fwd-only`, `--incast-only`
   and `--mill-only` run one block alone, as `make ab` alternates them. *)

let out_path = ref "BENCH_engine.json"
let smoke = ref false

(* --- measurement ------------------------------------------------------ *)

type sample = {
  events : int;
  wall_s : float;
  minor_words : float;
}

let events_per_sec s =
  if s.wall_s > 0. then float_of_int s.events /. s.wall_s else 0.

let words_per_event s =
  if s.events > 0 then s.minor_words /. float_of_int s.events else 0.

let measure f =
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. words0 in
  { events; wall_s; minor_words }

(* p25, median and p75 of repeated measurements (nearest rank). *)
type spread = { p25 : float; median : float; p75 : float }

let spread xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let n = Array.length xs in
  let at q = xs.(int_of_float ((q *. float_of_int (n - 1)) +. 0.5)) in
  { p25 = at 0.25; median = at 0.5; p75 = at 0.75 }

(* --- targets ---------------------------------------------------------- *)

(* Synthetic self-rescheduling event mill: [width] concurrent timers,
   each firing reschedules itself at a deterministic pseudo-random
   offset, so the heap stays [width] deep and every event exercises
   add + pop + dispatch. *)
let bench_mill ~events ~reps =
  let width = 512 in
  let eng = Engine.create () in
  let fired = ref 0 in
  let rec tick i () =
    incr fired;
    let delay = Sim_time.ns (1 + ((i * 31) + !fired) land 255) in
    ignore (Engine.schedule eng ~delay (tick i))
  in
  for i = 0 to width - 1 do
    ignore (Engine.schedule eng ~delay:(Sim_time.ns (i land 63)) (tick i))
  done;
  (* Best-of-[reps] windows over the same running mill: the workload is
     stateless across windows (no global interner or pool touched), so
     repeats only filter scheduler noise out of the wall-clock. *)
  let best = ref None in
  for _ = 1 to reps do
    let before = Engine.events_processed eng in
    let s =
      measure (fun () ->
          Engine.run eng ~max_events:events;
          Engine.events_processed eng - before)
    in
    match !best with
    | Some b when b.wall_s <= s.wall_s -> ()
    | _ -> best := Some s
  done;
  match !best with Some s -> s | None -> assert false

(* The incast preset (Experiment.default_incast), replicated here rather
   than called through Experiment so we can read the engine's event count
   for the words/event metric.  Keep in sync with Experiment.run_incast.
   Best-of-[reps]: every Network.build resets the per-run state
   (Fabric_core.create), so every repetition must replay the same trace:
   a repetition whose event count is not [expect_events] fails the
   bench. *)
let bench_incast ~schemes ~fanin ~bytes ~seed ~reps ~expect_events =
  let once () =
    let wheel = ref 0 and heap = ref 0 in
    let s =
      measure (fun () ->
        List.fold_left
          (fun acc scheme_name ->
            let scheme =
              match Network.scheme_of_string scheme_name with
              | Ok s -> s
              | Error e -> failwith e
            in
            let fabric =
              {
                Leaf_spine.motivation with
                Leaf_spine.hosts_per_leaf = fanin;
                n_spines = 4;
              }
            in
            let params =
              let base = Network.default_params ~fabric ~scheme in
              { base with Network.seed }
            in
            let net = Network.build params in
            let ls = Network.fabric net in
            let receiver = Leaf_spine.host ls ~leaf:1 ~index:0 in
            let done_ = ref 0 in
            for i = 0 to fanin - 1 do
              let src = Leaf_spine.host ls ~leaf:0 ~index:i in
              let qp = Network.connect net ~src ~dst:receiver in
              Rnic.post_send qp ~bytes ~on_complete:(fun _ -> incr done_)
            done;
            Network.run net ~until:(Sim_time.sec 30);
            if !done_ < fanin then failwith "engine_bench: incast incomplete";
            let w, h = Engine.sched_stats (Network.engine net) in
            wheel := !wheel + w;
            heap := !heap + h;
            acc + Engine.events_processed (Network.engine net))
          0 schemes)
    in
    (s, !wheel, !heap)
  in
  let checked rep =
    let ((s, _, _) as r) = once () in
    if s.events <> expect_events then
      failwith
        (Printf.sprintf
           "engine_bench: incast repetition %d ran %d events, the trace \
            fingerprint is %d"
           rep s.events expect_events);
    r
  in
  let runs = Array.init reps (fun i -> checked (i + 1)) in
  let s, wheel, heap =
    Array.fold_left
      (fun ((b, _, _) as best) ((s, _, _) as r) ->
        if s.wall_s < b.wall_s then r else best)
      runs.(0) runs
  in
  (* The wheel-vs-heap split is the §15 design invariant: every periodic
     timer in the incast preset fits the wheel's epoch, so near all
     schedules should take the dense O(1) path. *)
  let total = wheel + heap in
  let hit = if total > 0 then float_of_int wheel /. float_of_int total else 0. in
  if hit <= 0.90 then
    failwith
      (Printf.sprintf
         "engine_bench: incast wheel hit ratio %.4f <= 0.90 (wheel=%d heap=%d)"
         hit wheel heap);
  (s, wheel, heap, hit, spread (Array.map (fun (s, _, _) -> s.wall_s) runs))

(* Single-switch forward/enqueue microbench: a standalone ToR with all
   its ports attached and sink deliveries, fed pooled data packets from
   four cross-rack flows in batches small enough to never hit buffer
   admission.  Measures the pure per-packet forwarding cost
   (route lookup + path choice + enqueue + tx/propagate events) as
   packets/sec and minor words/packet, and asserts that once warm the
   compiled route cache takes zero hashtable probes and the loop
   allocates zero words.

   Each of [windows] passes over the warm switch feeds [batches]
   batches and is timed whole; the reported rate is the median window's,
   with the windows' quartiles. *)
type fwd = {
  packets : int;  (* per window *)
  rate : spread;  (* packets/sec over the windows *)
  words_per_packet : float;
  probes : int;
}

let bench_fwd ~batches ~windows =
  let engine = Engine.create () in
  let ls = Leaf_spine.build Leaf_spine.motivation in
  let topo = ls.Leaf_spine.topo in
  let routing = Routing.compute topo in
  let tor = ls.Leaf_spine.leaves.(0) in
  let cfg =
    Switch.default_config ~bw:Leaf_spine.motivation.Leaf_spine.fabric_bw
      Lb_policy.Random_spray
  in
  let sw =
    Switch.create ~engine ~topo ~routing ~node:tor ~config:cfg
      ~rng:(Rng.create ~seed:7)
  in
  List.iter
    (fun (peer, link_id) ->
      let link = Topology.link topo link_id in
      let port =
        Port.create ~engine ~bandwidth:link.Topology.bandwidth
          ~delay:link.Topology.delay
          ~label:(Printf.sprintf "%d->%d" tor peer)
      in
      Port.set_deliver port Packet_pool.release;
      Switch.attach_port sw ~link_id ~peer port)
    (Topology.neighbors topo tor);
  let nflows = 4 in
  let conns =
    Array.init nflows (fun i ->
        Flow_id.make
          ~src:(Leaf_spine.host ls ~leaf:0 ~index:i)
          ~dst:(Leaf_spine.host ls ~leaf:1 ~index:i)
          ~qpn:1)
  in
  let conn_ids = Array.map Flow_id.intern conns in
  let psn = ref 0 in
  let batch = 128 in
  let run_batch () =
    for i = 0 to batch - 1 do
      let k = i land (nflows - 1) in
      let pkt =
        Packet_pool.data ~conn:conns.(k) ~conn_id:conn_ids.(k)
          ~sport:(0x8000 lor k)
          ~psn:(Psn.of_int !psn) ~payload:1000 ~last_of_msg:false
          ~retransmission:false ~birth:(Engine.now engine)
      in
      incr psn;
      Switch.receive sw pkt
    done;
    Engine.run engine
  in
  (* Warm the route cache and the packet pool before measuring, then
     require the steady state to be probe-free. *)
  run_batch ();
  run_batch ();
  let probes0 = Switch.forward_hash_probes () in
  let packets = batches * batch in
  (* Later windows reuse the same connections and route cache, so
     repeats only filter machine noise; the probe-free and
     allocation-free assertions span every window, timing included. *)
  let rates = Array.make windows 0. in
  let words0 = Gc.minor_words () in
  for w = 0 to windows - 1 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batches do
      run_batch ()
    done;
    rates.(w) <- float_of_int packets /. (Unix.gettimeofday () -. t0)
  done;
  let steady_words = Gc.minor_words () -. words0 in
  let steady_probes = Switch.forward_hash_probes () - probes0 in
  if steady_probes <> 0 then
    failwith
      (Printf.sprintf
         "engine_bench: %d hashtable probes on the steady-state forward path"
         steady_probes);
  (* Once warm, a pooled packet's trip through the switch (path choice,
     enqueue, tx and propagation events, release) allocates nothing. *)
  if steady_words <> 0. then
    failwith
      (Printf.sprintf
         "engine_bench: %.0f minor words allocated on the steady-state \
          forward path"
         steady_words);
  if Switch.forwarded_packets sw < packets * windows then
    failwith "engine_bench: fwd forwarded fewer packets than fed";
  {
    packets;
    rate = spread rates;
    words_per_packet = steady_words /. float_of_int (packets * windows);
    probes = steady_probes;
  }

(* The CI campaign grid, executed serially in-process: wall-clock here is
   what a single `make campaign-quick` worker pays per job. *)
let bench_quick () =
  let spec =
    match Campaign_spec.preset "quick" with
    | Some s -> s
    | None -> failwith "engine_bench: no quick preset"
  in
  let jobs = Campaign_spec.jobs_of spec in
  let s =
    measure (fun () ->
        List.iter (fun j -> ignore (Campaign_runner.run_job j)) jobs;
        List.length jobs)
  in
  (s, List.length jobs)

(* Fabric build cost (DESIGN.md §11): [Network.build] and
   [Routing.recompute] on the 8x8 eval fabric and the paper's 16x16.
   Every repetition starts after a [Gc.full_major], so no major slice
   owed by earlier garbage lands inside it; the spread is reported as
   the quartiles of the per-repetition times. *)
type cost = { us : spread; words : float }

let cost ~reps f =
  let times = Array.make reps 0. and words = ref 0. in
  for i = 0 to reps - 1 do
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    times.(i) <- (Unix.gettimeofday () -. t0) *. 1e6;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  { us = spread times; words = !words /. float_of_int reps }

let bench_build ~reps =
  let scheme =
    match Network.scheme_of_string "themis" with
    | Ok s -> s
    | Error e -> failwith e
  in
  List.map
    (fun (name, fabric) ->
      let params = Network.default_params ~fabric ~scheme in
      let build = cost ~reps (fun () -> ignore (Network.build params)) in
      let routing = Network.routing (Network.build params) in
      let recompute = cost ~reps (fun () -> Routing.recompute routing) in
      (name, build, recompute))
    [ ("eval8", Experiment.scaled_eval_fabric); ("paper16", Leaf_spine.paper_eval) ]

(* --- JSON ------------------------------------------------------------- *)

let mill_keys = [ "events"; "wall_s"; "events_per_sec"; "minor_words_per_event" ]

let j_sample s =
  Campaign_json.Obj
    (List.combine mill_keys
       (List.map
          (fun x -> Campaign_json.Num x)
          [
            float_of_int s.events; s.wall_s; events_per_sec s;
            words_per_event s;
          ]))

let j_spread sp =
  Campaign_json.Obj
    [
      ("median", Campaign_json.Num sp.median);
      ("p25", Campaign_json.Num sp.p25);
      ("p75", Campaign_json.Num sp.p75);
    ]

let j_incast (s, wheel, heap, hit, reps) =
  Campaign_json.Obj
    [
      ("events", Campaign_json.Num (float_of_int s.events));
      ("wall_s", Campaign_json.Num s.wall_s);
      ("rep_wall_s", j_spread reps);
      ("events_per_sec", Campaign_json.Num (events_per_sec s));
      ("minor_words_per_event", Campaign_json.Num (words_per_event s));
      ("wheel_adds", Campaign_json.Num (float_of_int wheel));
      ("heap_adds", Campaign_json.Num (float_of_int heap));
      ("wheel_hit_ratio", Campaign_json.Num hit);
    ]

let fwd_keys =
  [
    "packets"; "packets_per_sec"; "packets_per_sec_p25";
    "packets_per_sec_p75"; "minor_words_per_packet";
    "steady_state_hash_probes";
  ]

let j_fwd f =
  Campaign_json.Obj
    (List.combine fwd_keys
       (List.map
          (fun x -> Campaign_json.Num x)
          [
            float_of_int f.packets; f.rate.median; f.rate.p25; f.rate.p75;
            f.words_per_packet; float_of_int f.probes;
          ]))

let j_cost c =
  Campaign_json.Obj
    [
      ("median_us", Campaign_json.Num c.us.median);
      ("p25_us", Campaign_json.Num c.us.p25);
      ("p75_us", Campaign_json.Num c.us.p75);
      ("minor_words", Campaign_json.Num c.words);
    ]

let j_build rows =
  Campaign_json.Obj
    (List.map
       (fun (name, build, recompute) ->
         ( name,
           Campaign_json.Obj
             [
               ("network_build", j_cost build);
               ("routing_recompute", j_cost recompute);
             ] ))
       rows)

let emit ~mill ~incast ~quick ~fwd ~build =
  let quick_fields =
    match quick with
    | Some (q, jobs) ->
        [
          ( "quick",
            Campaign_json.Obj
              [
                ("jobs", Campaign_json.Num (float_of_int jobs));
                ("wall_s", Campaign_json.Num q.wall_s);
              ] );
        ]
    | None -> []
  in
  let opt key f v = match v with Some v -> [ (key, f v) ] | None -> [] in
  let doc =
    Campaign_json.Obj
      ([
         ("bench", Campaign_json.Str "engine");
         ("mode", Campaign_json.Str (if !smoke then "smoke" else "full"));
       ]
      @ opt "mill" j_sample mill
      @ opt "incast" j_incast incast
      @ quick_fields
      @ opt "fwd" j_fwd fwd
      @ opt "build" j_build build)
  in
  let oc = open_out !out_path in
  output_string oc (Campaign_json.to_string doc);
  output_char oc '\n';
  close_out oc

(* The smoke path is the `make check` gate: it must prove the harness
   runs end-to-end and that the file it wrote is valid JSON with the
   fields the trajectory tooling reads: the top-level [keys] and, when
   [fwd] or [mill] is one of them, every field of that block. *)
let validate_output ~keys =
  let ic = open_in !out_path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Campaign_json.of_string s with
  | Error e -> failwith (Printf.sprintf "engine_bench: bad JSON emitted: %s" e)
  | Ok doc ->
      let require obj path key =
        match Campaign_json.member key obj with
        | Some v -> v
        | None ->
            failwith
              (Printf.sprintf "engine_bench: missing field %S" (path ^ key))
      in
      List.iter
        (fun key ->
          let v = require doc "" key in
          let fields =
            match key with "fwd" -> fwd_keys | "mill" -> mill_keys | _ -> []
          in
          List.iter (fun k -> ignore (require v (key ^ ".") k)) fields)
        keys

let pp_fwd f =
  Printf.sprintf "fwd %.0f pkt/s (p25 %.0f, p75 %.0f), %.2f w/pkt, %d steady probes"
    f.rate.median f.rate.p25 f.rate.p75 f.words_per_packet f.probes

type target = All | Fwd_only | Incast_only | Mill_only

let () =
  let target = ref All in
  let only t =
    if !target <> All then begin
      prerr_endline
        "engine_bench: --fwd-only, --incast-only and --mill-only exclude \
         each other";
      exit 2
    end;
    target := t
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--fwd-only" :: rest ->
        only Fwd_only;
        parse rest
    | "--incast-only" :: rest ->
        only Incast_only;
        parse rest
    | "--mill-only" :: rest ->
        only Mill_only;
        parse rest
    | "--out" :: path :: rest ->
        out_path := path;
        parse rest
    | arg :: _ ->
        prerr_endline
          ("usage: engine_bench [--smoke] [--fwd-only | --incast-only | \
            --mill-only] [--out PATH]; got " ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reps = if !smoke then 1 else 5 in
  let fwd () =
    if !smoke then bench_fwd ~batches:96 ~windows:1
    else bench_fwd ~batches:10_000 ~windows:10
  in
  (* The 4-scheme incast replays the 330,667-event fingerprint in every
     repetition; the smoke incast replays 756. *)
  let incast () =
    if !smoke then
      bench_incast ~schemes:[ "ecmp" ] ~fanin:2 ~bytes:50_000 ~seed:3 ~reps
        ~expect_events:756
    else
      bench_incast
        ~schemes:[ "ecmp"; "adaptive"; "random-spray"; "themis" ]
        ~fanin:8 ~bytes:1_000_000 ~seed:3 ~reps ~expect_events:330_667
  in
  let mill () =
    bench_mill ~events:(if !smoke then 20_000 else 4_000_000) ~reps
  in
  let pp_mill mill =
    Printf.sprintf "mill %.0f ev/s, %.2f w/ev" (events_per_sec mill)
      (words_per_event mill)
  in
  let pp_incast (s, wheel, heap, hit, _) =
    Printf.sprintf "incast %d ev, %.0f ev/s, %.2f w/ev, wheel %.2f%% (%d/%d)"
      s.events (events_per_sec s) (words_per_event s) (hit *. 100.) wheel
      (wheel + heap)
  in
  (match !target with
  | Fwd_only ->
      let fwd = fwd () in
      emit ~mill:None ~incast:None ~quick:None ~fwd:(Some fwd) ~build:None;
      validate_output ~keys:[ "bench"; "mode"; "fwd" ];
      Printf.printf "engine_bench: %s\n" (pp_fwd fwd)
  | Incast_only ->
      let incast = incast () in
      emit ~mill:None ~incast:(Some incast) ~quick:None ~fwd:None ~build:None;
      validate_output ~keys:[ "bench"; "mode"; "incast" ];
      Printf.printf "engine_bench: %s\n" (pp_incast incast)
  | Mill_only ->
      let mill = mill () in
      emit ~mill:(Some mill) ~incast:None ~quick:None ~fwd:None ~build:None;
      validate_output ~keys:[ "bench"; "mode"; "mill" ];
      Printf.printf "engine_bench: %s\n" (pp_mill mill)
  | All ->
      let fwd = fwd () in
      let mill = mill () in
      let incast = incast () in
      let quick = if !smoke then None else Some (bench_quick ()) in
      let build = bench_build ~reps:(if !smoke then 3 else 101) in
      emit ~mill:(Some mill) ~incast:(Some incast) ~quick ~fwd:(Some fwd)
        ~build:(Some build);
      validate_output
        ~keys:[ "bench"; "mode"; "mill"; "incast"; "fwd"; "build" ];
      Printf.printf "engine_bench: %s | %s | %s%s\n" (pp_mill mill)
        (pp_incast incast)
        (pp_fwd fwd)
        (match quick with
        | Some (q, jobs) -> Printf.sprintf " | quick %d jobs %.2f s" jobs q.wall_s
        | None -> "");
      List.iter
        (fun (name, b, r) ->
          Printf.printf
            "engine_bench: build %s: Network.build %.0f us (p25 %.0f, p75 \
             %.0f, %.0f minor words), Routing.recompute %.1f us (p25 %.1f, \
             p75 %.1f)\n"
            name b.us.median b.us.p25 b.us.p75 b.words r.us.median r.us.p25
            r.us.p75)
        build);
  Printf.printf "engine_bench: wrote %s\n" !out_path
