(* Campaign subsystem tests: spec/job serialization round-trips, frozen
   store hashes (the on-disk contract — changing the serialization
   silently orphans every store and baseline, so the hashes are pinned
   here as literals), store cache semantics including corrupt-file
   recovery, serial-vs-forked pool byte-identity on a mini campaign,
   report rendering, and the regression gate's perturbation detection. *)

let spec = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let spec_of l =
  match Campaign_spec.of_string l with
  | Ok t -> t
  | Error e -> Alcotest.failf "cannot parse %s: %s" l e

let replace_once s ~sub ~by =
  match find_sub s sub with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by
      ^ String.sub s (i + String.length sub)
          (String.length s - i - String.length sub)

(* ------------------------------------------------------------------ *)
(* Generators. *)

let scheme_pool =
  [ "ecmp"; "adaptive"; "random-spray"; "psn-spray-only"; "themis";
    "themis-nocomp" ]

let coll_pool =
  [ "allreduce"; "hd-allreduce"; "alltoall"; "allgather"; "reduce-scatter" ]

let transport_pool = [ "sr"; "gbn"; "ideal" ]
let wname_pool = [ "mix"; "sweep"; "failures" ]

let gen_fabric =
  QCheck.Gen.(
    oneof
      [
        return Campaign_spec.Eval8;
        return Campaign_spec.Paper;
        map
          (fun (((leaves, spines), hosts), gbps) ->
            Campaign_spec.Ls_fab { leaves; spines; hosts; gbps })
          (pair (pair (pair (int_range 1 16) (int_range 1 16)) (int_range 1 16))
             (oneofl [ 40; 100; 200; 400 ]));
      ])

(* Axis generators: possibly-empty (of_string tolerates an empty axis;
   validate rejects it per-target) and non-empty. *)
let opt_axis g = QCheck.Gen.(list_size (int_range 0 3) g)
let nonempty_axis g = QCheck.Gen.(list_size (int_range 1 3) g)

let gen_spec =
  QCheck.Gen.(
    let* name = oneofl [ "quick"; "night-7"; "a_b"; "x0" ] in
    let* target =
      oneofl
        Campaign_spec.[ Fig1; Fig5; Incast; Ablation; Fuzz_sweep; Workload; Arena ]
    in
    let* fabrics = opt_axis gen_fabric in
    let* transports = opt_axis (oneofl transport_pool) in
    let* schemes = opt_axis (oneofl scheme_pool) in
    let* colls = opt_axis (oneofl coll_pool) in
    let* mbs = opt_axis (int_range 1 64) in
    let* dcqcn = opt_axis (pair (int_range 1 1000) (int_range 1 200)) in
    let* fanins = opt_axis (int_range 1 32) in
    let* studies = opt_axis (oneofl Campaign_spec.studies_known) in
    let* wnames = opt_axis (oneofl wname_pool) in
    let* loads = opt_axis (int_range 1 200) in
    let* scens = opt_axis (oneofl Arena_scen.known) in
    let* profile = oneofl [ "quick"; "soak" ] in
    let* seeds = nonempty_axis (int_range 0 9999) in
    return
      {
        Campaign_spec.name;
        target;
        fabrics;
        transports;
        schemes;
        colls;
        mbs;
        dcqcn;
        fanins;
        studies;
        wnames;
        loads;
        scens;
        profile;
        seeds;
      })

let gen_job =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ((transport, mb), seed) ->
            Campaign_spec.Fig1_job { transport; mb; seed })
          (pair (pair (oneofl transport_pool) (int_range 1 64)) (int_range 0 999));
        map
          (fun ((((fabric, scheme), coll), (mb, (ti_us, td_us))), seed) ->
            Campaign_spec.Fig5_job
              { fabric; scheme; coll; mb; ti_us; td_us; seed })
          (pair
             (pair
                (pair (pair gen_fabric (oneofl scheme_pool)) (oneofl coll_pool))
                (pair (int_range 1 64)
                   (pair (int_range 1 1000) (int_range 1 200))))
             (int_range 0 999));
        map
          (fun (((scheme, fanin), mb), seed) ->
            Campaign_spec.Incast_job { scheme; fanin; mb; seed })
          (pair
             (pair (pair (oneofl scheme_pool) (int_range 1 32)) (int_range 1 64))
             (int_range 0 999));
        map
          (fun (study, seed) -> Campaign_spec.Ablation_job { study; seed })
          (pair (oneofl Campaign_spec.studies_known) (int_range 0 999));
        map
          (fun (soak, seed) -> Campaign_spec.Fuzz_job { soak; seed })
          (pair bool (int_range 0 999));
        map
          (fun (((wname, wscheme), load), wseed) ->
            Campaign_spec.Workload_job { wname; wscheme; load; wseed })
          (pair
             (pair (pair (oneofl wname_pool) (oneofl scheme_pool))
                (int_range 1 200))
             (int_range 0 999));
      ])

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec to_string/of_string exact inverse" ~count:300
    (QCheck.make gen_spec ~print:Campaign_spec.to_string)
    (fun s ->
      match Campaign_spec.of_string (Campaign_spec.to_string s) with
      | Error e -> QCheck.Test.fail_reportf "of_string failed: %s" e
      | Ok s' ->
          Campaign_spec.equal s s'
          && Campaign_spec.to_string s' = Campaign_spec.to_string s)

let prop_job_roundtrip =
  QCheck.Test.make ~name:"job to_string/of_string exact inverse" ~count:500
    (QCheck.make gen_job ~print:Campaign_spec.job_to_string)
    (fun j ->
      match Campaign_spec.job_of_string (Campaign_spec.job_to_string j) with
      | Error e -> QCheck.Test.fail_reportf "job_of_string failed: %s" e
      | Ok j' ->
          Campaign_spec.equal_job j j'
          && Campaign_spec.job_hash j' = Campaign_spec.job_hash j)

(* ------------------------------------------------------------------ *)
(* Frozen store hashes.  If one of these changes, every committed
   baseline under bench/baselines/ and every user's _campaign/ store is
   silently invalidated — bump the "cj1" version tag instead of editing
   the serialization in place. *)

let frozen_hashes =
  [
    ("cj1;fig5;fab=eval8;scheme=ecmp;coll=allreduce;mb=1;ti=900;td=4;seed=11",
     "a825435583eecb10");
    ("cj1;fig5;fab=eval8;scheme=adaptive;coll=allreduce;mb=1;ti=10;td=50;seed=11",
     "c20241f711bc12ee");
    ("cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=10;td=50;seed=11",
     "437b05fae9debd92");
    ("cj1;fig1;tr=sr;mb=10;seed=7", "7062ea2f16eed10a");
    ("cj1;incast;scheme=ecmp;fanin=8;mb=1;seed=3", "98f53fe7ca69b554");
    ("cj1;ablation;study=compensation;seed=5", "3efc36d37b5e9329");
    ("cj1;fuzz;profile=quick;seed=1", "cc72a2a5a6c0418d");
    ("cj1;workload;wl=mix;scheme=themis;load=30;seed=21", "615cb165879f6650");
    ("cj1;arena;scheme=themis;scen=sym;seed=31", "d43ca30a36a3957d");
    ("cj1;arena;scheme=sprinklers;scen=cspine;seed=31", "d08bf234fef6d953");
  ]

let test_frozen_hashes () =
  List.iter
    (fun (line, hash) ->
      match Campaign_spec.job_of_string line with
      | Error e -> Alcotest.failf "cannot parse %s: %s" line e
      | Ok job ->
          spec "canonical string" line (Campaign_spec.job_to_string job);
          spec line hash (Campaign_spec.job_hash job))
    frozen_hashes;
  (* FNV-1a reference vector (64-bit, "a" = 0xaf63dc4c8601ec8c). *)
  spec "fnv1a(a)" "af63dc4c8601ec8c" (Campaign_spec.hash_string "a")

let test_presets () =
  List.iter
    (fun name ->
      match Campaign_spec.preset name with
      | None -> Alcotest.failf "preset %s missing" name
      | Some s -> (
          spec "preset name" name s.Campaign_spec.name;
          match Campaign_spec.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "preset %s invalid: %s" name e))
    Campaign_spec.preset_names;
  let quick = Option.get (Campaign_spec.preset "quick") in
  let jobs = Campaign_spec.jobs_of quick in
  check_int "quick grid size" 6 (List.length jobs);
  (* Expansion order is part of the contract (sharding, reports). *)
  spec "first quick job"
    "cj1;fig5;fab=eval8;scheme=ecmp;coll=allreduce;mb=1;ti=900;td=4;seed=11"
    (Campaign_spec.job_to_string (List.hd jobs))

let test_parse_errors () =
  let bad l =
    match Campaign_spec.of_string l with
    | Ok _ -> Alcotest.failf "accepted bad spec %s" l
    | Error _ -> ()
  in
  bad "cp2;name=x;target=fig5";
  bad "cp1;name=x;target=fig9;fab=;tr=;schemes=;colls=;mb=;dcqcn=;fanins=;studies=;profile=quick;seeds=1";
  bad "cp1;name=x;target=fig5;fab=;tr=;schemes=;colls=;mb=;dcqcn=;fanins=;studies=;profile=slow;seeds=1";
  bad "cp1;name=x;target=fig5;fab=;tr=;schemes=;colls=;mb=;dcqcn=5;fanins=;studies=;profile=quick;seeds=1";
  (match Campaign_spec.job_of_string "cj1;warp;seed=1" with
  | Ok _ -> Alcotest.fail "accepted unknown job kind"
  | Error _ -> ());
  (* Malformed fields in either line format: unknown key, repeated key,
     no '='. *)
  let quick =
    Campaign_spec.to_string (Option.get (Campaign_spec.preset "quick"))
  in
  let job = "cj1;fig1;tr=sr;mb=10;seed=7" in
  List.iter
    (fun (l, want) ->
      let got =
        if String.starts_with ~prefix:"cp1" l then
          Result.map ignore (Campaign_spec.of_string l)
        else Result.map ignore (Campaign_spec.job_of_string l)
      in
      Alcotest.(check (result unit string)) l (Error want) got)
    [
      (quick ^ ";seed=1", "unknown field \"seed\"");
      (quick ^ ";wl=mix", "duplicate field \"wl\"");
      (quick ^ ";loads", "field \"loads\" has no '='");
      (job ^ ";scheme=themis", "unknown field \"scheme\"");
      (job ^ ";mb=1", "duplicate field \"mb\"");
      (job ^ ";mb", "field \"mb\" has no '='");
    ];
  (* Well-formed job lines whose names do not resolve parse, but fail
     validation instead of reaching the runner. *)
  List.iter
    (fun l ->
      match Campaign_spec.job_of_string l with
      | Error e -> Alcotest.failf "cannot parse %s: %s" l e
      | Ok j -> (
          match Campaign_spec.validate_job j with
          | Ok () -> Alcotest.failf "validated bad job %s" l
          | Error _ -> ()))
    [
      "cj1;ablation;study=warp;seed=1";
      "cj1;fig5;fab=eval8;scheme=warp;coll=allreduce;mb=1;ti=900;td=4;seed=11";
      "cj1;arena;scheme=themis;scen=nope;seed=1";
      "cj1;workload;wl=nope;scheme=themis;load=30;seed=1";
    ];
  (* Numbers the simulator cannot run are validation errors too, not an
     exception out of the runner. *)
  let fig5 fab mb =
    Printf.sprintf
      "cj1;fig5;fab=%s;scheme=themis;coll=allreduce;mb=%d;ti=900;td=4;seed=11"
      fab mb
  in
  List.iter
    (fun (l, want) ->
      let got =
        Result.bind (Campaign_spec.job_of_string l) Campaign_spec.validate_job
      in
      Alcotest.(check (result unit string)) l (Error want) got)
    [
      ("cj1;incast;scheme=themis;fanin=0;mb=1;seed=3", "fanin 0 must be at least 1");
      ("cj1;incast;scheme=themis;fanin=2;mb=0;seed=3", "mb 0 must be at least 1");
      ("cj1;fig1;tr=sr;mb=0;seed=7", "mb 0 must be at least 1");
      (fig5 "eval8" 0, "mb 0 must be at least 1");
      (fig5 "ls:0:1:1:100" 1, "fabric leaves 0 must be at least 2");
      (fig5 "ls:1:1:2:100" 1, "fabric leaves 1 must be at least 2");
      (fig5 "ls:2:0:1:100" 1, "fabric spines 0 must be at least 1");
      (fig5 "ls:2:1:0:100" 1, "fabric hosts 0 must be at least 1");
      (fig5 "ls:2:1:1:0" 1, "fabric gbps 0 must be at least 1");
      ( "cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=0;td=4;seed=11",
        "ti 0 must be at least 1" );
      ( "cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=900;td=-4;seed=11",
        "td -4 must be at least 1" );
    ];
  let no_seeds =
    { (Option.get (Campaign_spec.preset "quick")) with Campaign_spec.seeds = [] }
  in
  match Campaign_spec.validate no_seeds with
  | Ok () -> Alcotest.fail "validated empty seed axis"
  | Error _ -> ()

(* The Fig. 5 axes live in the presets: the paper's five DCQCN points
   from the recommended (900, 4), and the three schemes it compares. *)
let test_fig5_preset_axes () =
  List.iter
    (fun name ->
      let p = Option.get (Campaign_spec.preset name) in
      Alcotest.(check (list (pair int int)))
        (name ^ " dcqcn")
        [ (900, 4); (300, 4); (10, 4); (10, 50); (10, 200) ]
        p.Campaign_spec.dcqcn;
      Alcotest.(check (list string))
        (name ^ " schemes")
        [ "ecmp"; "adaptive"; "themis" ]
        p.Campaign_spec.schemes)
    [ "fig5a"; "fig5b" ]

(* A cp1 line need only name the axes its target uses. *)
let test_optional_axes () =
  let minimal =
    spec_of
      "cp1;name=p;target=fig5;fab=paper;schemes=themis;colls=allreduce;mb=300;dcqcn=900:4;seeds=11"
  in
  let full =
    "cp1;name=p;target=fig5;fab=paper;tr=;schemes=themis;colls=allreduce;mb=300;dcqcn=900:4;fanins=;studies=;wl=;loads=;scens=;profile=quick;seeds=11"
  in
  check_bool "minimal equals full" true
    (Campaign_spec.equal minimal (spec_of full));
  spec "printed in full" full (Campaign_spec.to_string minimal);
  (* An axis the target needs is still required, by [validate]. *)
  Alcotest.(check (result unit string))
    "fig5 without colls" (Error "colls axis is empty")
    (Campaign_spec.validate
       (spec_of
          "cp1;name=p;target=fig5;fab=eval8;schemes=themis;mb=1;dcqcn=900:4;seeds=11"));
  (* The Fig. 5 variants EXPERIMENTS.md gives as cp1 lines: paper
     scale, halving-doubling, alltoall at 24 MB. *)
  List.iter
    (fun l ->
      match Campaign_spec.validate (spec_of l) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid %s: %s" l e)
    [
      "cp1;name=paper;target=fig5;fab=paper;schemes=ecmp+adaptive+themis;colls=allreduce;mb=300;dcqcn=900:4,300:4,10:4,10:50,10:200;seeds=11";
      "cp1;name=hd;target=fig5;fab=eval8;schemes=ecmp+adaptive+themis;colls=hd-allreduce;mb=4;dcqcn=900:4,300:4,10:4,10:50,10:200;seeds=11";
      "cp1;name=a2a24;target=fig5;fab=eval8;schemes=ecmp+adaptive+themis;colls=alltoall;mb=24;dcqcn=900:4,300:4,10:4,10:50,10:200;seeds=11";
    ]

(* ------------------------------------------------------------------ *)
(* Result records. *)

let test_result_roundtrip () =
  let job =
    Campaign_spec.Incast_job { scheme = "themis"; fanin = 4; mb = 1; seed = 3 }
  in
  let r =
    Campaign_result.make ~job
      ~metrics:[ ("fct_p50_us", 12.); ("fct_p99_us", 95.125); ("retx", 0.) ]
  in
  let json = Campaign_result.to_json_string r in
  (match Campaign_result.of_json_string json with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
      spec "job" r.Campaign_result.job r'.Campaign_result.job;
      spec "hash" r.Campaign_result.hash r'.Campaign_result.hash;
      check_bool "metrics" true
        (r.Campaign_result.metrics = r'.Campaign_result.metrics);
      spec "canonical json" json (Campaign_result.to_json_string r'));
  (* A tampered hash must be rejected (the store treats it as a miss). *)
  let tampered =
    replace_once json ~sub:r.Campaign_result.hash ~by:"0000000000000000"
  in
  match Campaign_result.of_json_string tampered with
  | Ok _ -> Alcotest.fail "accepted hash-mismatched result"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Store semantics. *)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "themis_campaign_test_%d_%d_%s" (Unix.getpid ()) !counter
         tag)

let sample_result () =
  Campaign_result.make
    ~job:
      (Campaign_spec.Incast_job { scheme = "ecmp"; fanin = 4; mb = 1; seed = 3 })
    ~metrics:[ ("fct_p50_us", 10.); ("fct_p99_us", 20.) ]

let test_store_hit_miss () =
  let store = Campaign_store.open_ ~dir:(fresh_dir "hitmiss") in
  let r = sample_result () in
  let h = r.Campaign_result.hash in
  check_bool "miss before save" false (Campaign_store.mem store h);
  Campaign_store.save store r;
  check_bool "hit after save" true (Campaign_store.mem store h);
  (match Campaign_store.load store h with
  | None -> Alcotest.fail "load after save returned None"
  | Some r' -> spec "loaded job" r.Campaign_result.job r'.Campaign_result.job);
  (* Saving again is idempotent at the byte level. *)
  let bytes0 = Option.get (Campaign_store.raw_bytes store h) in
  Campaign_store.save store r;
  spec "idempotent save" bytes0 (Option.get (Campaign_store.raw_bytes store h))

let test_store_corrupt_recovery () =
  let store = Campaign_store.open_ ~dir:(fresh_dir "corrupt") in
  let r = sample_result () in
  let h = r.Campaign_result.hash in
  (* Truncated garbage where a result should be. *)
  let oc = open_out_bin (Campaign_store.path store h) in
  output_string oc "{\"v\":1,\"job\":\"cj1;inc";
  close_out oc;
  check_bool "corrupt file is a miss" true (Campaign_store.load store h = None);
  check_bool "corrupt file unlinked" false
    (Sys.file_exists (Campaign_store.path store h));
  (* A valid result filed under the wrong hash is also a (cleared) miss. *)
  Campaign_store.save store r;
  let wrong = String.make 16 'f' in
  let ic = open_in_bin (Campaign_store.path store h) in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin (Campaign_store.path store wrong) in
  output_string oc bytes;
  close_out oc;
  check_bool "misfiled result is a miss" true
    (Campaign_store.load store wrong = None);
  check_bool "misfiled result unlinked" false
    (Sys.file_exists (Campaign_store.path store wrong));
  (* The honest slot is untouched. *)
  check_bool "real slot still valid" true (Campaign_store.mem store h)

(* ------------------------------------------------------------------ *)
(* Pool: serial reference vs forked workers. *)

let mini_jobs =
  (* Cheap incast cells, ~0.2 s each.  Fan-in 8 (the evaluated point):
     at tiny fan-ins the paper's "Themis p99 <= ECMP p99" property does
     not hold (spraying overhead dominates), so smaller grids would trip
     the gate's shape check by design. *)
  List.concat_map
    (fun seed ->
      List.map
        (fun scheme ->
          Campaign_spec.Incast_job { scheme; fanin = 8; mb = 1; seed })
        [ "ecmp"; "themis" ])
    [ 3; 4 ]

(* Run the mini campaign once, serially and with two forked workers;
   several tests below share the outcome. *)
let mini =
  lazy
    (let serial = Campaign_store.open_ ~dir:(fresh_dir "serial") in
     let forked = Campaign_store.open_ ~dir:(fresh_dir "forked") in
     let s_sum = Campaign_pool.run ~workers:1 ~store:serial mini_jobs in
     let f_sum = Campaign_pool.run ~workers:2 ~store:forked mini_jobs in
     (serial, forked, s_sum, f_sum))

let test_pool_byte_identity () =
  let serial, forked, s_sum, f_sum = Lazy.force mini in
  check_bool "serial clean" true (Campaign_pool.ok s_sum);
  check_bool "forked clean" true (Campaign_pool.ok f_sum);
  check_int "serial executed" 4 s_sum.Campaign_pool.s_executed;
  check_int "forked executed" 4 f_sum.Campaign_pool.s_executed;
  let hs = Campaign_store.list serial and hf = Campaign_store.list forked in
  check_int "same result set" (List.length hs) (List.length hf);
  List.iter2
    (fun a b ->
      spec "same hash" a b;
      spec
        (Printf.sprintf "bytes of %s" a)
        (Option.get (Campaign_store.raw_bytes serial a))
        (Option.get (Campaign_store.raw_bytes forked b)))
    hs hf

(* Interning determinism at the job boundary: every fabric build resets
   the flow-id interner (Fabric_core.create), so the id assignment after
   a job is a pure function of the job — unaffected by whatever was
   interned before it (earlier jobs in the same worker, or nothing at
   all in a freshly forked one).  This is the in-process half of the
   guarantee the serial-vs-forked byte-identity test observes
   externally. *)
let test_intern_reset_at_job_boundary () =
  let j = List.hd mini_jobs in
  let store1 = Campaign_store.open_ ~dir:(fresh_dir "intern1") in
  let sum1 = Campaign_pool.run ~workers:1 ~store:store1 [ j ] in
  check_bool "first run clean" true (Campaign_pool.ok sum1);
  let snap1 = Flow_id.intern_snapshot () in
  check_bool "job interned some flows" true (snap1 <> []);
  (* Pollute the interner: a missing per-job reset would leave this flow
     occupying id 0..n and shift the rerun's assignment. *)
  ignore (Flow_id.intern (Flow_id.make ~src:9999 ~dst:9998 ~qpn:77));
  let store2 = Campaign_store.open_ ~dir:(fresh_dir "intern2") in
  let sum2 = Campaign_pool.run ~workers:1 ~store:store2 [ j ] in
  check_bool "second run clean" true (Campaign_pool.ok sum2);
  let snap2 = Flow_id.intern_snapshot () in
  check_bool "id assignment identical across jobs" true (snap1 = snap2);
  List.iteri (fun i (id, _) -> check_int "dense id" i id) snap2

(* Arena cells run a whole fuzz scenario per job — scheme state (REPS
   caches, Sprinklers stripes) lives in Lb_state globals, so this is the
   test that the reset at each fabric build covers them: a forked worker
   starts pristine, a serial worker inherits whatever the previous cell
   left behind, and the bytes must still match. *)
let test_arena_pool_byte_identity () =
  let jobs =
    List.map
      (fun ascheme ->
        Campaign_spec.Arena_job { ascheme; ascen = "sym"; aseed = 31 })
      [ "reps"; "sprinklers" ]
  in
  let serial = Campaign_store.open_ ~dir:(fresh_dir "arena-serial") in
  let forked = Campaign_store.open_ ~dir:(fresh_dir "arena-forked") in
  let s_sum = Campaign_pool.run ~workers:1 ~store:serial jobs in
  let f_sum = Campaign_pool.run ~workers:2 ~store:forked jobs in
  check_bool "serial clean" true (Campaign_pool.ok s_sum);
  check_bool "forked clean" true (Campaign_pool.ok f_sum);
  let hs = Campaign_store.list serial and hf = Campaign_store.list forked in
  check_int "same result set" (List.length hs) (List.length hf);
  List.iter2
    (fun a b ->
      spec "same hash" a b;
      spec
        (Printf.sprintf "bytes of %s" a)
        (Option.get (Campaign_store.raw_bytes serial a))
        (Option.get (Campaign_store.raw_bytes forked b)))
    hs hf

let test_pool_warm_rerun () =
  let _, forked, _, _ = Lazy.force mini in
  let again = Campaign_pool.run ~workers:2 ~store:forked mini_jobs in
  check_int "all cached" 4 again.Campaign_pool.s_cached;
  check_int "none executed" 0 again.Campaign_pool.s_executed;
  check_bool "clean" true (Campaign_pool.ok again)

let test_pool_dedupe () =
  let store = Campaign_store.open_ ~dir:(fresh_dir "dedupe") in
  let j = List.hd mini_jobs in
  let summary = Campaign_pool.run ~store [ j; j; j ] in
  check_int "deduped total" 1 summary.Campaign_pool.s_total;
  check_int "deduped executed" 1 summary.Campaign_pool.s_executed

(* A crashing cell is captured as a failure record carrying its
   canonical job string (the reproducer), and never aborts the rest of
   the campaign — in both the serial and the forked path. *)
let crash_capture ~workers () =
  let store = Campaign_store.open_ ~dir:(fresh_dir "crash") in
  let bad =
    Campaign_spec.Incast_job { scheme = "bogus"; fanin = 4; mb = 1; seed = 3 }
  in
  let good = List.hd mini_jobs in
  let summary =
    Campaign_pool.run ~workers ~retries:0 ~store [ bad; good ]
  in
  check_bool "campaign not ok" false (Campaign_pool.ok summary);
  check_int "one failure" 1 (List.length summary.Campaign_pool.s_failures);
  let f = List.hd summary.Campaign_pool.s_failures in
  spec "failure carries reproducer" (Campaign_spec.job_to_string bad)
    f.Campaign_pool.f_job;
  check_bool "reason is a crash" true
    (String.length f.Campaign_pool.f_reason >= 6
    && String.sub f.Campaign_pool.f_reason 0 6 = "crash:");
  (* The good cell still ran and landed in the store. *)
  check_int "good cell executed" 1 summary.Campaign_pool.s_executed;
  check_bool "good result stored" true
    (Campaign_store.mem store (Campaign_spec.job_hash good))

(* ------------------------------------------------------------------ *)
(* Gate: green on a faithful baseline, red on a perturbed one. *)

let test_gate_clean_and_perturbed () =
  let serial, _, _, _ = Lazy.force mini in
  let lookup = Campaign_store.load serial in
  let baseline =
    List.filter_map
      (fun j -> lookup (Campaign_spec.job_hash j))
      mini_jobs
  in
  check_int "baseline complete" 4 (List.length baseline);
  let v = Campaign_gate.check ~baseline ~lookup ~jobs:mini_jobs () in
  check_bool "clean gate passes" true (Campaign_gate.ok v);
  check_int "band checks" 8 v.Campaign_gate.g_band_checks;
  check_int "shape checks" 2 v.Campaign_gate.g_shape_checks;
  (* Double one p99 in the baseline: the band check must trip even
     though the simulator itself is healthy. *)
  let perturbed =
    List.mapi
      (fun i (r : Campaign_result.t) ->
        if i <> 0 then r
        else
          {
            r with
            Campaign_result.metrics =
              List.map
                (fun (k, x) -> (k, if k = "fct_p99_us" then x *. 2. else x))
                r.Campaign_result.metrics;
          })
      baseline
  in
  let v' = Campaign_gate.check ~baseline:perturbed ~lookup ~jobs:mini_jobs () in
  check_bool "perturbed baseline fails" false (Campaign_gate.ok v');
  check_int "exactly one issue" 1 (List.length v'.Campaign_gate.g_issues);
  let issue = List.hd v'.Campaign_gate.g_issues in
  check_bool "issue names the metric" true
    (contains issue.Campaign_gate.i_what "fct_p99_us")

let test_gate_missing_result () =
  let serial, _, _, _ = Lazy.force mini in
  let lookup = Campaign_store.load serial in
  let absent =
    Campaign_result.make
      ~job:
        (Campaign_spec.Incast_job
           { scheme = "ecmp"; fanin = 16; mb = 1; seed = 99 })
      ~metrics:[ ("fct_p99_us", 1.) ]
  in
  let v = Campaign_gate.check ~baseline:[ absent ] ~lookup ~jobs:[] () in
  check_bool "missing current result is an issue" false (Campaign_gate.ok v);
  (* A baseline line whose job does not parse is reported, not skipped. *)
  let bad =
    {
      Campaign_result.job = "not-a-job";
      hash = Campaign_spec.hash_string "not-a-job";
      metrics = [ ("x_ns", 1.) ];
    }
  in
  let v' = Campaign_gate.check ~baseline:[ bad ] ~lookup ~jobs:[] () in
  check_int "unparsable baseline job is one issue" 1
    (List.length v'.Campaign_gate.g_issues);
  check_bool "issue says it does not parse" true
    (contains (List.hd v'.Campaign_gate.g_issues).Campaign_gate.i_what
       "does not parse")

(* ------------------------------------------------------------------ *)
(* Report rendering, from hand-built results. *)

let render_with spec results =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace tbl r.Campaign_result.hash r)
    results;
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Campaign_report.render ppf ~spec ~lookup:(Hashtbl.find_opt tbl) ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let check_has out line =
  if not (contains out line) then
    Alcotest.failf "report lacks %S in:\n%s" line out

let test_render_fig5 () =
  let spec =
    spec_of
      "cp1;name=t;target=fig5;fab=eval8;schemes=adaptive+themis;colls=allreduce;mb=1;dcqcn=900:4,10:50;seeds=11"
  in
  let ct = function
    | "adaptive", (900, 4) -> Some 0.2
    | "adaptive", _ -> Some 0.16
    | "themis", (900, 4) -> Some 0.15
    | _ -> None
  in
  let results =
    List.filter_map
      (fun job ->
        match job with
        | Campaign_spec.Fig5_job { scheme; ti_us; td_us; _ } ->
            Option.map
              (fun v -> Campaign_result.make ~job ~metrics:[ ("tail_ct_ms", v) ])
              (ct (scheme, (ti_us, td_us)))
        | _ -> None)
      (Campaign_spec.jobs_of spec)
  in
  let out = render_with spec results in
  check_has out "4 jobs, 3 results, 1 missing";
  check_has out "#### fig5 eval8 / allreduce / 1 MB / seed 11";
  check_has out "| scheme | TI=900,TD=4 | TI=10,TD=50 |";
  check_has out "| adaptive | 0.200 | 0.160 |";
  check_has out "| themis | 0.150 | - |";
  (* Only (900, 4) has both schemes: (0.2 - 0.15) / 0.2. *)
  check_has out "Themis vs adaptive routing: 25.0% ~ 25.0% lower tail CT";
  check_has out
    "missing results:\n\
     - `cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=10;td=50;seed=11`"

let test_render_incast_ablation () =
  let incast =
    spec_of "cp1;name=i;target=incast;schemes=themis;fanins=8;mb=1;seeds=3"
  in
  let job = List.hd (Campaign_spec.jobs_of incast) in
  let out =
    render_with incast
      [
        Campaign_result.make ~job
          ~metrics:
            [
              ("fct_mean_us", 1146.229); ("fct_p50_us", 667.445);
              ("fct_p99_us", 3024.196); ("retx", 0.); ("drops", 0.);
            ];
      ]
  in
  check_has out "| job | fct_mean_us | fct_p50_us | fct_p99_us | retx | drops |";
  check_has out
    "| cj1;incast;scheme=themis;fanin=8;mb=1;seed=3 | 1146.229 | 667.445 | \
     3024.196 | 0.000 | 0.000 |";
  check_bool "nothing missing" false (contains out "missing results");
  let ablation =
    spec_of "cp1;name=a;target=ablation;studies=transports,memory;seeds=5"
  in
  let transports = List.hd (Campaign_spec.jobs_of ablation) in
  let out =
    render_with ablation
      [
        Campaign_result.make ~job:transports
          ~metrics:[ ("gbn__cx_4_5__goodput_gbps", 12.476996416491161) ];
      ]
  in
  check_has out "#### cj1;ablation;study=transports;seed=5";
  (* Ablation values print as every other cell does, to three places. *)
  check_has out "- gbn__cx_4_5__goodput_gbps: 12.477\n";
  check_has out "missing results:\n- `cj1;ablation;study=memory;seed=5`"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_job_roundtrip;
          Alcotest.test_case "frozen store hashes" `Quick test_frozen_hashes;
          Alcotest.test_case "presets valid, quick grid" `Quick test_presets;
          Alcotest.test_case "parse/validate errors" `Quick test_parse_errors;
          Alcotest.test_case "fig5a preset axes" `Quick test_fig5_preset_axes;
          Alcotest.test_case "optional axes" `Quick test_optional_axes;
        ] );
      ( "result",
        [ Alcotest.test_case "json roundtrip + tamper" `Quick
            test_result_roundtrip ] );
      ( "report",
        [
          Alcotest.test_case "fig5 cells, headline, missing" `Quick
            test_render_fig5;
          Alcotest.test_case "incast row, ablation values" `Quick
            test_render_incast_ablation;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit/miss/idempotent save" `Quick
            test_store_hit_miss;
          Alcotest.test_case "corrupt + misfiled recovery" `Quick
            test_store_corrupt_recovery;
        ] );
      ( "pool",
        [
          Alcotest.test_case "2 workers byte-identical to serial" `Quick
            test_pool_byte_identity;
          Alcotest.test_case "arena byte-identical to serial" `Quick
            test_arena_pool_byte_identity;
          Alcotest.test_case "warm rerun: 100% cached" `Quick
            test_pool_warm_rerun;
          Alcotest.test_case "hash dedupe" `Quick test_pool_dedupe;
          Alcotest.test_case "intern reset at job boundary" `Quick
            test_intern_reset_at_job_boundary;
          Alcotest.test_case "crash capture (serial)" `Quick
            (crash_capture ~workers:1);
          Alcotest.test_case "crash capture (forked)" `Quick
            (crash_capture ~workers:2);
        ] );
      ( "gate",
        [
          Alcotest.test_case "clean passes, perturbed fails" `Quick
            test_gate_clean_and_perturbed;
          Alcotest.test_case "missing result / unparsable job" `Quick
            test_gate_missing_result;
        ] );
    ]
