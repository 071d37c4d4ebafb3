(* The fuzz harness's own unit tests: spec serialization roundtrips,
   generator sanity, oracle wiring on tiny deterministic scenarios, and
   shrinker termination. *)

let tiny_spec =
  {
    Fuzz_spec.seed = 7;
    shape =
      Fuzz_spec.Ls
        {
          n_leaves = 2;
          n_spines = 2;
          hosts_per_leaf = 2;
          host_gbps = 100;
          fabric_gbps = 40;
          link_delay_ns = 500;
        };
    gbn = false;
    queue_factor_pct = 150;
    per_port_kb = 9216;
    jitter_ns = 0;
    drop_ppm = 0;
    corrupt_ppm = 0;
    dup_ppm = 0;
    delay_ppm = 0;
    delay_max_ns = 0;
    shrink_pathset = false;
    deadline_ns = 2_000_000_000;
    schemes = Fuzz_spec.all_schemes;
    transfers =
      [
        { Fuzz_spec.src = 0; dst = 2; bytes = 12_000; start_ns = 0 };
        { Fuzz_spec.src = 3; dst = 1; bytes = 4_500; start_ns = 1_000 };
      ];
    link_faults = [];
    slow_spine = None;
  }

(* to_string/of_string is an exact inverse on every generated spec. *)
let prop_roundtrip_quick =
  QCheck.Test.make ~name:"spec roundtrip (quick profile)" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec = Fuzz_spec.generate ~profile:Fuzz_spec.Quick ~seed () in
      Fuzz_spec.of_string (Fuzz_spec.to_string spec) = Ok spec)

let prop_roundtrip_soak =
  QCheck.Test.make ~name:"spec roundtrip (soak profile)" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec = Fuzz_spec.generate ~profile:Fuzz_spec.Soak ~seed () in
      Fuzz_spec.of_string (Fuzz_spec.to_string spec) = Ok spec)

(* Generated specs are well-formed: hosts in range, no self-loops,
   faults only on fabric links of multi-spine leaf-spine shapes. *)
let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated specs are well-formed" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec = Fuzz_spec.generate ~seed () in
      let n = Fuzz_spec.n_hosts_of_shape spec.Fuzz_spec.shape in
      List.for_all
        (fun tr ->
          tr.Fuzz_spec.src <> tr.Fuzz_spec.dst
          && tr.Fuzz_spec.src >= 0 && tr.Fuzz_spec.src < n
          && tr.Fuzz_spec.dst >= 0 && tr.Fuzz_spec.dst < n
          && tr.Fuzz_spec.bytes > 0)
        spec.Fuzz_spec.transfers
      && List.for_all
           (fun f -> f.Fuzz_spec.fault_link >= n)
           spec.Fuzz_spec.link_faults
      && (spec.Fuzz_spec.link_faults = []
         ||
         match spec.Fuzz_spec.shape with
         | Fuzz_spec.Ls { n_spines; _ } -> n_spines >= 2
         | Fuzz_spec.Ft _ -> false))

let test_roundtrip_handwritten () =
  let s = Fuzz_spec.to_string tiny_spec in
  Alcotest.(check bool) "exact roundtrip" true
    (Fuzz_spec.of_string s = Ok tiny_spec)

let test_of_string_gen () =
  Alcotest.(check bool) "gen:N = generate quick" true
    (Fuzz_spec.of_string "gen:42" = Ok (Fuzz_spec.generate ~seed:42 ()));
  Alcotest.(check bool) "gen:N:soak = generate soak" true
    (Fuzz_spec.of_string "gen:42:soak"
    = Ok (Fuzz_spec.generate ~profile:Fuzz_spec.Soak ~seed:42 ()))

let test_of_string_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "garbage" true (is_err (Fuzz_spec.of_string "nope"));
  Alcotest.(check bool) "bad version" true
    (is_err (Fuzz_spec.of_string "fz9;seed=1"));
  Alcotest.(check bool) "truncated" true
    (is_err (Fuzz_spec.of_string "fz1;seed=1;shape=ls:2:2:2:100:40:500"));
  (* Malformed fields are named, never skipped: a typo'd key, a repeated
     key and a field without '='. *)
  let line = Fuzz_spec.to_string tiny_spec in
  List.iter
    (fun (bad, want) ->
      Alcotest.(check (result unit string)) bad (Error want)
        (Result.map ignore (Fuzz_spec.of_string bad)))
    [
      (line ^ ";sspin=0:10", "unknown field \"sspin\"");
      (line ^ ";seed=2", "duplicate field \"seed\"");
      (line ^ ";qf", "field \"qf\" has no '='");
    ]

(* A clean two-flow scenario holds every oracle under every scheme. *)
let test_tiny_run_all_schemes () =
  List.iter
    (fun o ->
      Alcotest.(check (list string))
        (Printf.sprintf "no violations under %s" o.Fuzz_run.o_scheme)
        []
        (List.map
           (fun v -> v.Fuzz_oracle.oracle ^ ": " ^ v.Fuzz_oracle.detail)
           o.Fuzz_run.o_violations))
    (Fuzz_run.run tiny_spec)

(* Out-of-range hosts and fat-tree link faults are rejected, not run. *)
let test_bad_specs_rejected () =
  let bad_host =
    {
      tiny_spec with
      Fuzz_spec.transfers =
        [ { Fuzz_spec.src = 0; dst = 99; bytes = 1_000; start_ns = 0 } ];
    }
  in
  (match Fuzz_run.run_scheme bad_host ~scheme:"ecmp" with
  | exception Fuzz_run.Bad_spec _ -> ()
  | _ -> Alcotest.fail "host out of range accepted");
  let bad_fault =
    {
      tiny_spec with
      Fuzz_spec.link_faults =
        [ { Fuzz_spec.fault_link = 0; down_ns = 0; up_ns = 0 } ];
    }
  in
  (match Fuzz_run.run_scheme bad_fault ~scheme:"ecmp" with
  | exception Fuzz_run.Bad_spec _ -> ()
  | _ -> Alcotest.fail "host-link fault accepted");
  (* Shapes the fabric builders cannot wire are a bad spec, not a
     simulator crash. *)
  let ls_msg =
    Printf.sprintf "shape %s: every leaf-spine count and rate must be >= 1"
  and ft_msg =
    Printf.sprintf
      "shape %s: fat tree needs k >= 4 with k/2 a power of two, and rate >= 1"
  in
  List.iter
    (fun (shape, msg) ->
      let spec =
        match
          Fuzz_spec.of_string
            (Printf.sprintf
               "fz1;seed=5;shape=%s;tr=sr;qf=25;ppcap=9216;jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;schemes=ecmp;flows=5>1:91722@80292;faults="
               shape)
        with
        | Ok spec -> spec
        | Error e -> Alcotest.failf "%s: %s" shape e
      in
      match Fuzz_run.run_scheme spec ~scheme:"ecmp" with
      | exception Fuzz_run.Bad_spec e -> Alcotest.(check string) shape (msg shape) e
      | _ -> Alcotest.failf "shape %s accepted" shape)
    [
      ("ls:4:4:2:0:100:1254", ls_msg);
      ("ls:4:0:2:100:100:1254", ls_msg);
      ("ft:3:100:1254", ft_msg);
      ("ft:4:0:1254", ft_msg);
      ("ft:6:100:1254", ft_msg);
    ];
  (* One scalar field out of range, on a line that otherwise runs. *)
  let line ?(qf = "25") ?(ppcap = "9216") ?(jit = "0") ?(drop = "0")
      ?(dly = "0:0") ?(start = "80292") ?(faults = "") () =
    Printf.sprintf
      "fz1;seed=5;shape=ls:4:4:2:100:100:1254;tr=sr;qf=%s;ppcap=%s;jit=%s;drop=%s;corr=0;dup=0;dly=%s;fmode=ecmp;dl=2000000000;schemes=themis;flows=5>1:91722@%s;faults=%s"
      qf ppcap jit drop dly start faults
  in
  List.iter
    (fun (l, want) ->
      match Fuzz_spec.of_string l with
      | Error e -> Alcotest.failf "%s: %s" l e
      | Ok spec -> (
          match Fuzz_run.run_scheme spec ~scheme:"themis" with
          | exception Fuzz_run.Bad_spec e -> Alcotest.(check string) l want e
          | _ -> Alcotest.failf "accepted %s" l))
    [
      (line ~ppcap:"0" (), "ppcap 0 must be at least 1");
      (line ~qf:"-3" (), "qf -3 must be at least 1");
      (line ~jit:"-5" (), "jit -5 must be at least 0");
      (line ~drop:"2000000" (), "drop 2000000 ppm out of [0, 1000000]");
      (line ~dly:"5:-1" (), "dly max -1 must be at least 0");
      (line ~start:"-5" (), "flow with negative start time");
      (line ~faults:"16:-5:0" (), "link fault with negative down time");
    ];
  Alcotest.(check (result unit string)) "the unmodified line validates" (Ok ())
    (Result.bind (Fuzz_spec.of_string (line ())) Fuzz_spec.validate)

(* Minimizing a passing spec is a no-op that stays within budget. *)
let test_shrink_passing_is_noop () =
  let r = Fuzz_shrink.minimize ~budget:16 ~spec:tiny_spec ~scheme:"themis" () in
  Alcotest.(check bool) "not shrunk" false r.Fuzz_shrink.shrunk;
  Alcotest.(check bool) "within budget" true (r.Fuzz_shrink.runs_used <= 16);
  Alcotest.(check bool) "schemes narrowed" true
    (r.Fuzz_shrink.minimized.Fuzz_spec.schemes = [ "themis" ])

(* Every shrink candidate strictly reduces the cost metric the greedy
   loop keys on — the termination argument for [minimize]. *)
let prop_candidates_reduce_cost =
  QCheck.Test.make ~name:"accepted shrink candidates reduce cost" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let spec = Fuzz_spec.generate ~seed () in
      let cost = Fuzz_spec.cost spec in
      (* Not all candidates must reduce cost (some are filtered by the
         loop), but at least one must whenever the spec is non-minimal,
         and none may *increase* packet count. *)
      List.for_all
        (fun c -> Fuzz_spec.cost c <= cost)
        (Fuzz_shrink.candidates spec))

let () =
  Alcotest.run "fuzz"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_quick;
          QCheck_alcotest.to_alcotest prop_roundtrip_soak;
          QCheck_alcotest.to_alcotest prop_generated_well_formed;
          Alcotest.test_case "handwritten roundtrip" `Quick
            test_roundtrip_handwritten;
          Alcotest.test_case "gen: shorthand" `Quick test_of_string_gen;
          Alcotest.test_case "parse errors" `Quick test_of_string_errors;
        ] );
      ( "run",
        [
          Alcotest.test_case "tiny run, all schemes" `Quick
            test_tiny_run_all_schemes;
          Alcotest.test_case "bad specs rejected" `Quick
            test_bad_specs_rejected;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "passing spec no-op" `Quick
            test_shrink_passing_is_noop;
          QCheck_alcotest.to_alcotest prop_candidates_reduce_cost;
        ] );
    ]
