(* Campaign orchestrator driver.

     themis_campaign_cli run    --preset fig5a --workers 4   -- execute a sweep
     themis_campaign_cli resume --preset fig5a               -- warm rerun (cache)
     themis_campaign_cli report --preset fig5a               -- tables from the store
     themis_campaign_cli gate   --preset quick               -- diff vs frozen baseline
     themis_campaign_cli freeze --preset quick               -- write a new baseline
     themis_campaign_cli exec '<job>'                        -- one job, serial
     themis_campaign_cli jobs   --preset fig5a               -- grid + store keys

   A campaign expands a declarative spec into a cartesian job grid,
   fans the jobs out over a Unix-fork worker pool, and files every
   result under _campaign/<hash>.json — so interrupted campaigns
   resume for free and warm reruns execute nothing. *)

open Cmdliner

let log line = print_endline line

(* ------------------------------------------------------------------ *)
(* Common options *)

let store_arg =
  Arg.(value & opt string "_campaign"
       & info [ "store" ] ~docv:"DIR" ~doc:"Result store directory.")

let spec_term =
  let spec_s =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"SPEC" ~doc:"A cp1;... campaign spec line.")
  in
  let preset_s =
    Arg.(value & opt (some string) None
         & info [ "preset" ] ~docv:"NAME"
             ~doc:(Printf.sprintf "Named campaign: %s."
                     (String.concat ", " Campaign_spec.preset_names)))
  in
  let resolve spec_s preset_s =
    match (spec_s, preset_s) with
    | Some _, Some _ -> Error "--spec and --preset are mutually exclusive"
    | Some s, None -> Campaign_spec.of_string s
    | None, Some p -> (
        match Campaign_spec.preset p with
        | Some spec -> Ok spec
        | None ->
            Error
              (Printf.sprintf "unknown preset %S (have: %s)" p
                 (String.concat ", " Campaign_spec.preset_names)))
    | None, None -> Error "one of --spec or --preset is required"
  in
  Term.(const resolve $ spec_s $ preset_s)

let with_spec spec_r f =
  match spec_r with
  | Error e ->
      Format.eprintf "campaign: %s@." e;
      2
  | Ok spec -> (
      match Campaign_spec.validate spec with
      | Error e ->
          Format.eprintf "campaign: invalid spec: %s@." e;
          2
      | Ok () -> f spec)

let default_baseline (spec : Campaign_spec.t) =
  Filename.concat "bench/baselines" (spec.Campaign_spec.name ^ ".json")

let baseline_arg =
  Arg.(value & opt (some string) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline file (default: bench/baselines/<name>.json).")

let lookup_in store hash = Campaign_store.load store hash

(* ------------------------------------------------------------------ *)
(* run / resume *)

let exec_campaign spec ~store_dir ~workers ~timeout_s ~retries ~force ~quiet =
  let store = Campaign_store.open_ ~dir:store_dir in
  let jobs = Campaign_spec.jobs_of spec in
  let log = if quiet then fun _ -> () else log in
  Format.printf "campaign %s: %d jobs, %d workers, store %s@."
    spec.Campaign_spec.name (List.length jobs) workers store_dir;
  let summary =
    Campaign_pool.run ~workers ~timeout_s ~retries ~force ~log ~store jobs
  in
  Format.printf "%a@." Campaign_pool.pp_summary summary;
  if Campaign_pool.ok summary then 0 else 1

let workers_arg =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker processes (1 = serial, in-process).")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Run shardable fuzz/arena jobs across $(docv) simulation \
                 domains (execution-level only: job hashes, the store and \
                 frozen baselines are unchanged at N=1; unshardable jobs \
                 fall back to serial).")

let with_shards shards f =
  match Campaign_runner.set_shards shards with
  | Error e ->
      Format.eprintf "campaign: --shards %d: %s@." shards e;
      2
  | Ok () -> f ()

let timeout_arg =
  Arg.(value & opt float 300.
       & info [ "timeout-s" ] ~doc:"Per-job wall budget before kill+retry.")

let retries_arg =
  Arg.(value & opt int 1
       & info [ "retries" ] ~doc:"Retries after a timeout or crash.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-job progress lines.")

let run_cmd =
  let force_arg =
    Arg.(value & flag
         & info [ "force" ] ~doc:"Re-execute jobs already in the store.")
  in
  let run spec_r store_dir workers shards timeout_s retries force quiet =
    with_spec spec_r (fun spec ->
        with_shards shards (fun () ->
            exec_campaign spec ~store_dir ~workers ~timeout_s ~retries ~force
              ~quiet))
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a campaign grid over the worker pool")
    Term.(const run $ spec_term $ store_arg $ workers_arg $ shards_arg
          $ timeout_arg $ retries_arg $ force_arg $ quiet_arg)

let resume_cmd =
  let run spec_r store_dir workers shards timeout_s retries quiet =
    with_spec spec_r (fun spec ->
        with_shards shards (fun () ->
            exec_campaign spec ~store_dir ~workers ~timeout_s ~retries
              ~force:false ~quiet))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Continue an interrupted campaign (completed jobs are cache hits)")
    Term.(const run $ spec_term $ store_arg $ workers_arg $ shards_arg
          $ timeout_arg $ retries_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let run spec_r store_dir =
    with_spec spec_r (fun spec ->
        let store = Campaign_store.open_ ~dir:store_dir in
        Campaign_report.render Format.std_formatter ~spec
          ~lookup:(lookup_in store) ();
        0)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render the stored results as markdown tables")
    Term.(const run $ spec_term $ store_arg)

(* ------------------------------------------------------------------ *)
(* gate / freeze *)

let gate_cmd =
  let tol_arg =
    Arg.(value & opt float 25.
         & info [ "tol-pct" ] ~doc:"Tolerance band around baseline values.")
  in
  let slack_arg =
    Arg.(value & opt float 5.
         & info [ "slack-pct" ] ~doc:"Slack on shape-ordering invariants.")
  in
  let run spec_r store_dir baseline tol_pct slack_pct =
    with_spec spec_r (fun spec ->
        let store = Campaign_store.open_ ~dir:store_dir in
        let file =
          match baseline with Some f -> f | None -> default_baseline spec
        in
        match Campaign_store.read_baseline ~file with
        | Error e ->
            Format.eprintf "gate: %s@." e;
            2
        | Ok baseline ->
            let verdict =
              Campaign_gate.check ~tol_pct ~slack_pct ~baseline
                ~lookup:(lookup_in store)
                ~jobs:(Campaign_spec.jobs_of spec) ()
            in
            Format.printf "%a@." Campaign_gate.pp_verdict verdict;
            if Campaign_gate.ok verdict then (
              Format.printf "gate: OK (vs %s)@." file;
              0)
            else 1)
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:"Fail if stored results regressed vs the frozen baseline")
    Term.(const run $ spec_term $ store_arg $ baseline_arg $ tol_arg $ slack_arg)

let freeze_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Output file (default: bench/baselines/<name>.json).")
  in
  let run spec_r store_dir out =
    with_spec spec_r (fun spec ->
        let store = Campaign_store.open_ ~dir:store_dir in
        let jobs = Campaign_spec.jobs_of spec in
        let results, missing =
          List.fold_left
            (fun (rs, miss) j ->
              match Campaign_store.load store (Campaign_spec.job_hash j) with
              | Some r -> (r :: rs, miss)
              | None -> (rs, Campaign_spec.job_to_string j :: miss))
            ([], []) jobs
        in
        if missing <> [] then begin
          Format.eprintf "freeze: %d jobs have no stored result; run first:@."
            (List.length missing);
          List.iter (fun j -> Format.eprintf "  %s@." j) (List.rev missing);
          1
        end
        else
          let file = match out with Some f -> f | None -> default_baseline spec in
          Campaign_store.write_baseline ~file (List.rev results);
          Format.printf "froze %d results to %s@." (List.length results) file;
          0)
  in
  Cmd.v
    (Cmd.info "freeze" ~doc:"Write the campaign's stored results as a baseline")
    Term.(const run $ spec_term $ store_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* exec / jobs *)

let exec_cmd =
  let job_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOB" ~doc:"A cj1;... job line (from a failure report).")
  in
  let run job_s store_dir shards =
    match
      Result.bind (Campaign_spec.job_of_string job_s) (fun job ->
          Result.map (fun () -> job) (Campaign_spec.validate_job job))
    with
    | Error e ->
        Format.eprintf "exec: %s@." e;
        2
    | Ok job ->
        with_shards shards (fun () ->
            let store = Campaign_store.open_ ~dir:store_dir in
            let r = Campaign_runner.run_job job in
            Campaign_store.save store r;
            print_endline (Campaign_result.to_json_string r);
            0)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Run one job in-process and print its result JSON")
    Term.(const run $ job_arg $ store_arg $ shards_arg)

let jobs_cmd =
  let run spec_r store_dir =
    with_spec spec_r (fun spec ->
        let store = Campaign_store.open_ ~dir:store_dir in
        List.iter
          (fun j ->
            let h = Campaign_spec.job_hash j in
            Printf.printf "%s %s %s\n" h
              (if Campaign_store.mem store h then "done   " else "pending")
              (Campaign_spec.job_to_string j))
          (Campaign_spec.jobs_of spec);
        0)
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List the expanded job grid and its store keys")
    Term.(const run $ spec_term $ store_arg)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "themis_campaign_cli"
             ~doc:"Parallel experiment campaigns with a content-addressed \
                   result store and regression gates")
          [ run_cmd; resume_cmd; report_cmd; gate_cmd; freeze_cmd; exec_cmd;
            jobs_cmd ]))
