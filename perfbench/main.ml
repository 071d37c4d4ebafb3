(* Benchmark driver: repeats one workload for a fixed wall-clock budget
   and prints its metrics, then one JSON line.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   --trace 0 reports the end-to-end metrics, measured with no
   instrumentation installed.  --trace 1 alternates untraced and traced
   repetitions and reports the per-layer ledger plus the tracing overhead.
   Every repetition starts from fresh global state and a full major GC,
   and must reproduce the first repetition's fingerprint exactly. *)

open Perfbench

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* Untimed repetitions before the budget starts: the first runs of a
   process are slower while the major heap grows. *)
let warm_reps = 2

(* The measured loop runs at least this many repetitions, even when one
   repetition outlasts the budget. *)
let min_reps = 3

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 in
  let trace = ref 0 and size = ref Drive.Full in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME allreduce8 | incast32 | allreduce16 | rpc-open" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring budget (wall seconds)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--size",
        Arg.Symbol
          ( [ "full"; "tiny" ],
            fun s -> size := if s = "tiny" then Drive.Tiny else Drive.Full ),
        " tiny: self-check scale" );
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload Drive.workloads with
    | Some w -> w
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !seconds < 0 then fail_usage "--seconds must be >= 0";
  let size = !size and seed = !seed and traced = !trace = 1 in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let rep ?ledger () =
    Gc.full_major ();
    let r = Drive.run ?ledger ~size ~seed w in
    attempted := !attempted + r.Drive.attempted;
    failed := !failed + (r.Drive.attempted - r.Drive.completed);
    r
  in
  (* Warm-up: grows the heap to its working size and fills the caches.
     The first repetition is the reference every later one must
     reproduce; the heap peak is read after it, so it does not depend on
     how many repetitions fit in the budget. *)
  let reference = rep () in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (match Drive.check ~size ~seed w reference with
  | Ok () -> ()
  | Error e -> errors := e :: !errors);
  let same r what =
    if r.Drive.fingerprint <> reference.Drive.fingerprint then
      errors :=
        Printf.sprintf "%s run differs from the reference:\n  got %s\n  ref %s"
          what r.Drive.fingerprint reference.Drive.fingerprint
        :: !errors
  in
  for _ = 2 to warm_reps do
    same (rep ()) "warm-up"
  done;
  let plain = ref [] and traced_runs = ref [] in
  let total = Ledger.create () in
  let t_end = Ledger.now_ns () + (!seconds * 1_000_000_000) in
  let n = ref 0 in
  while !n < min_reps || Ledger.now_ns () < t_end do
    let r = rep () in
    same r "untraced";
    plain := r :: !plain;
    if traced then begin
      let ledger = Ledger.create () in
      let r = rep ~ledger () in
      same r "traced";
      Ledger.merge ~into:total ledger;
      traced_runs := r :: !traced_runs
    end;
    incr n
  done;
  let med (g : Drive.run -> float) runs = median (List.map g runs) in
  (* Set-up times are the fastest repetition's.  On a shared host,
     contention only ever slows the code down, so the minimum tracks the
     code's own speed. *)
  let fastest (g : Drive.run -> float) runs =
    List.fold_left (fun a r -> Float.min a (g r)) infinity runs
  in
  (* Run time is the lower envelope of the repetitions: the fastest time
     of each chunk of events (see [Drive.chunk_events]), summed.
     Contention comes and goes within a repetition, and a chunk of about
     a millisecond finds a quiet moment in some repetition far more often
     than a whole repetition does.  The rates divide the run's fixed work
     by this time. *)
  let envelope runs =
    let best = Array.make (Array.length reference.Drive.chunk_ns) max_int in
    List.iter
      (fun (r : Drive.run) ->
        if Array.length r.Drive.chunk_ns <> Array.length best then
          errors := "repetitions differ in their number of chunks" :: !errors
        else Array.iteri (fun i t -> best.(i) <- min best.(i) t) r.Drive.chunk_ns)
      runs;
    float_of_int (Array.fold_left ( + ) 0 best) /. 1e9
  in
  let f = float_of_int in
  let metrics =
    if not traced then
      let runs = !plain in
      let wall = envelope runs in
      [
        ("wall_s", wall, "s");
        ("setup_s", fastest (fun r -> r.Drive.setup_s) runs, "s");
        ("sim_us_per_wall_s", reference.Drive.sim_us /. wall, "sim_us/s");
        ("pkts_per_wall_s", f reference.Drive.data_pkts /. wall, "pkt/s");
        ("flows_per_wall_s", f reference.Drive.messages /. wall, "flows/s");
        ( "alloc_words_per_pkt",
          med (fun r -> r.Drive.minor_words /. f r.Drive.data_pkts) runs,
          "words" );
        ("top_heap_mb", f (top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
        ( "completed_frac",
          f (!attempted - !failed) /. f (max !attempted 1),
          "ratio" );
      ]
    else
      let runs = !traced_runs in
      let k = f (List.length runs) in
      let spans =
        List.concat_map
          (fun (layer, name) ->
            let calls = Ledger.calls total layer in
            let ns = Ledger.span_ns total layer in
            [
              ( name ^ ".ns_per_call",
                (if calls = 0 then 0. else f ns /. f calls),
                "ns" );
              (name ^ ".calls", f calls /. k, "count");
            ])
          Ledger.layers
      in
      let sum g = List.fold_left (fun a r -> a +. g r) 0. runs in
      let wall_ns = sum (fun r -> r.Drive.wall_s *. 1e9) in
      let span_ns = sum (fun r -> f r.Drive.span_ns) in
      let unit_of name =
        if String.ends_with ~suffix:"_ratio" name then "ratio"
        else if name = "engine.events_per_pkt" then "events/pkt"
        else if name = "runtime.minor_words_per_event" then "words/event"
        else "count"
      in
      spans
      @ [
          ("sim.build_s", fastest (fun r -> r.Drive.build_s) runs, "s");
          ( "engine.residual_ns_per_event",
            (wall_ns -. span_ns) /. sum (fun r -> f r.Drive.wall_events),
            "ns" );
        ]
      @ List.map (fun (name, v) -> (name, v, unit_of name)) reference.Drive.counts
      @ [
          ("trace.span_coverage", span_ns /. wall_ns, "ratio");
          ("trace.overhead_frac", envelope runs /. envelope !plain -. 1., "ratio");
        ]
  in
  Printf.printf "%s seed %d: %d repetitions%s\n" (Drive.name w) seed !n
    (if traced then " (untraced + traced pairs)" else "");
  Printf.printf "fingerprint %s\n" reference.Drive.fingerprint;
  List.iter (fun (name, v, u) -> Printf.printf "  %-36s %16.6g %s\n" name v u) metrics;
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev !errors);
  let correct = !errors = [] in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) u)
          metrics));
  exit (if correct then 0 else 1)
