type failure = {
  f_seed : int;
  f_scheme : string;
  f_spec : Fuzz_spec.t;
  f_minimized : Fuzz_spec.t option;
  f_violations : Fuzz_oracle.violation list;
}

type report = {
  r_specs : int;
  r_runs : int;
  r_det_checks : int;
  r_failures : failure list;
  r_wall_s : float;
}

let ok r = r.r_failures = []

let repro_line spec =
  Printf.sprintf "dune exec bin/themis_fuzz_cli.exe -- replay '%s'"
    (Fuzz_spec.to_string spec)

let violations_line vs =
  String.concat "; "
    (List.map (Format.asprintf "%a" Fuzz_oracle.pp_violation) vs)

let det_violation = { Fuzz_oracle.oracle = "determinism"; detail = "" }

let log_summary log run = function
  | None -> log (Printf.sprintf "  run %s summary: none" run)
  | Some s ->
      log (Printf.sprintf "  run %s summary:" run);
      String.split_on_char '\n'
        (Format.asprintf "%a" Experiment.pp_telemetry_summary s)
      |> List.iter (fun line -> log ("    " ^ line))

let divergence ~log ~seed spec ~scheme (a : Fuzz_run.outcome)
    (b : Fuzz_run.outcome) =
  let summaries_differ = a.o_summary <> b.o_summary in
  let events_differ = a.o_events_jsonl <> b.o_events_jsonl in
  if summaries_differ || events_differ then begin
    let detail =
      Printf.sprintf
        "two runs of seed %d under %s diverge (summaries %s, event dumps %s)"
        seed scheme
        (if summaries_differ then "differ" else "equal")
        (if events_differ then "differ" else "equal")
    in
    log (Printf.sprintf "DETERMINISM FAILURE: %s" detail);
    log_summary log "1" a.o_summary;
    log_summary log "2" b.o_summary;
    log ("  " ^ repro_line { spec with Fuzz_spec.schemes = [ scheme ] });
    Some
      {
        f_seed = seed;
        f_scheme = scheme;
        f_spec = spec;
        f_minimized = None;
        f_violations = [ { det_violation with Fuzz_oracle.detail } ];
      }
  end
  else None

let determinism_check ~log ~seed spec ~scheme =
  let a = Fuzz_run.run_scheme_safe spec ~scheme in
  let b = Fuzz_run.run_scheme_safe spec ~scheme in
  divergence ~log ~seed spec ~scheme a b

let run_seeds ?(profile = Fuzz_spec.Quick) ?(det_every = 10) ?(minimize = true)
    ?(budget_s = 0.) ?(log = ignore) ~seeds () =
  let t0 = Sys.time () in
  let specs = ref 0 and runs = ref 0 and det_checks = ref 0 in
  let failures = ref [] in
  let over_budget () = budget_s > 0. && Sys.time () -. t0 > budget_s in
  let truncated = ref false in
  List.iteri
    (fun idx seed ->
      if over_budget () then truncated := true
      else begin
        incr specs;
        let spec = Fuzz_spec.generate ~profile ~seed () in
        let schemes = Fuzz_run.schemes_of spec in
        List.iter
          (fun scheme ->
            incr runs;
            let o = Fuzz_run.run_scheme_safe spec ~scheme in
            if Fuzz_run.failed o then begin
              log
                (Printf.sprintf "FAILURE: seed %d scheme %s: %s" seed scheme
                   (violations_line o.Fuzz_run.o_violations));
              let minimized =
                if minimize then begin
                  let r = Fuzz_shrink.minimize ~spec ~scheme () in
                  runs := !runs + r.Fuzz_shrink.runs_used;
                  Some r.Fuzz_shrink.minimized
                end
                else None
              in
              let repro =
                match minimized with
                | Some m -> m
                | None -> { spec with Fuzz_spec.schemes = [ scheme ] }
              in
              log ("  " ^ repro_line repro);
              failures :=
                {
                  f_seed = seed;
                  f_scheme = scheme;
                  f_spec = spec;
                  f_minimized = minimized;
                  f_violations = o.Fuzz_run.o_violations;
                }
                :: !failures
            end)
          schemes;
        if det_every > 0 && idx mod det_every = 0 then begin
          incr det_checks;
          let scheme =
            List.nth schemes (idx / det_every mod List.length schemes)
          in
          runs := !runs + 2;
          match determinism_check ~log ~seed spec ~scheme with
          | Some f -> failures := f :: !failures
          | None -> ()
        end
      end)
    seeds;
  if !truncated then
    log
      (Printf.sprintf
         "NOTE: wall budget %.0fs exhausted after %d/%d specs — coverage \
          truncated"
         budget_s !specs (List.length seeds));
  {
    r_specs = !specs;
    r_runs = !runs;
    r_det_checks = !det_checks;
    r_failures = List.rev !failures;
    r_wall_s = Sys.time () -. t0;
  }

let quick ?(specs = 200) ?(seed = 1) ?(budget_s = 0.) ?(log = ignore) () =
  run_seeds ~profile:Fuzz_spec.Quick ~det_every:10 ~minimize:true ~budget_s
    ~log
    ~seeds:(List.init specs (fun i -> seed + i))
    ()

let soak ?(specs = 2_000) ?(seed = 1_000_000) ?(budget_s = 0.)
    ?(log = ignore) () =
  run_seeds ~profile:Fuzz_spec.Soak ~det_every:20 ~minimize:true ~budget_s ~log
    ~seeds:(List.init specs (fun i -> seed + i))
    ()

let replay ?(log = ignore) s =
  match Fuzz_spec.of_string s with
  | Error e -> Error e
  | Ok spec -> (
      let t0 = Sys.time () in
      match Fuzz_run.run spec with
      | exception Fuzz_run.Bad_spec m -> Error m
      | outcomes ->
          List.iter
            (fun o -> log (Format.asprintf "%a" Fuzz_run.pp_outcome o))
            outcomes;
          let failures =
            List.filter_map
              (fun o ->
                if Fuzz_run.failed o then
                  Some
                    {
                      f_seed = spec.Fuzz_spec.seed;
                      f_scheme = o.Fuzz_run.o_scheme;
                      f_spec = spec;
                      f_minimized = None;
                      f_violations = o.Fuzz_run.o_violations;
                    }
                else None)
              outcomes
          in
          let det_failure =
            match Fuzz_run.schemes_of spec with
            | [] -> None
            | scheme :: _ ->
                determinism_check ~log ~seed:spec.Fuzz_spec.seed spec ~scheme
          in
          let failures =
            failures @ Option.to_list det_failure
          in
          Ok
            {
              r_specs = 1;
              r_runs = List.length outcomes + 2;
              r_det_checks = 1;
              r_failures = failures;
              r_wall_s = Sys.time () -. t0;
            })
