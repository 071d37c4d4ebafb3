(* Fuzz-harness driver.

     themis_fuzz_cli quick            -- CI sweep: generated scenarios, all schemes
     themis_fuzz_cli soak             -- bigger fabrics/messages, open-ended sweep
     themis_fuzz_cli replay '<spec>'  -- re-run a printed spec (or gen:<seed>)
     themis_fuzz_cli show '<spec>'    -- print what a spec/seed expands to

   Every failure is shrunk and printed as a one-line replay command, so
   a red run always ends with a copy-pasteable reproducer. *)

open Cmdliner

let log line = print_endline line

let print_report (r : Fuzz_harness.report) =
  Format.printf
    "@.%d specs, %d runs (%d determinism double-runs), %.1f s: %s@." r.Fuzz_harness.r_specs
    r.Fuzz_harness.r_runs r.Fuzz_harness.r_det_checks r.Fuzz_harness.r_wall_s
    (if Fuzz_harness.ok r then "all oracles held"
     else Printf.sprintf "%d FAILURE(S)" (List.length r.Fuzz_harness.r_failures));
  List.iter
    (fun (f : Fuzz_harness.failure) ->
      Format.printf "  seed %d / %s: %s@." f.Fuzz_harness.f_seed
        f.Fuzz_harness.f_scheme
        (String.concat "; "
           (List.map
              (Format.asprintf "%a" Fuzz_oracle.pp_violation)
              f.Fuzz_harness.f_violations));
      let repro =
        match f.Fuzz_harness.f_minimized with
        | Some m -> m
        | None ->
            { f.Fuzz_harness.f_spec with
              Fuzz_spec.schemes = [ f.Fuzz_harness.f_scheme ] }
      in
      Format.printf "    %s@." (Fuzz_harness.repro_line repro))
    r.Fuzz_harness.r_failures;
  if Fuzz_harness.ok r then 0 else 1

let specs_arg ~default =
  Arg.(value & opt int default
       & info [ "specs" ] ~doc:"Number of generated scenarios.")

let seed_arg ~default =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"First generation seed.")

let budget_arg =
  Arg.(value & opt float 0.
       & info [ "budget-s" ]
           ~doc:"Stop generating new scenarios after this many seconds \
                 (0 = no budget).")

let quick_cmd =
  let run specs seed budget_s =
    print_report (Fuzz_harness.quick ~specs ~seed ~budget_s ~log ())
  in
  Cmd.v
    (Cmd.info "quick" ~doc:"CI sweep: small scenarios, every scheme")
    Term.(const run $ specs_arg ~default:200 $ seed_arg ~default:1 $ budget_arg)

let soak_cmd =
  let run specs seed budget_s =
    print_report (Fuzz_harness.soak ~specs ~seed ~budget_s ~log ())
  in
  Cmd.v
    (Cmd.info "soak" ~doc:"Deep sweep: bigger fabrics, messages and faults")
    Term.(const run $ specs_arg ~default:2000 $ seed_arg ~default:1000000
          $ budget_arg)

let spec_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SPEC" ~doc:"A printed spec line or gen:<seed>[:soak].")

let replay_cmd =
  let run spec_s =
    match Fuzz_harness.replay ~log spec_s with
    | Error e ->
        Format.eprintf "replay: %s@." e;
        2
    | Ok r -> print_report r
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run one spec under its schemes, verifying determinism")
    Term.(const run $ spec_arg)

let show_cmd =
  let run spec_s =
    match Fuzz_spec.of_string spec_s with
    | Error e ->
        Format.eprintf "show: %s@." e;
        2
    | Ok spec ->
        print_endline (Fuzz_spec.to_string spec);
        0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Expand a spec or gen:<seed> to its full form")
    Term.(const run $ spec_arg)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "themis_fuzz_cli"
             ~doc:"Deterministic fault-injection fuzz harness")
          [ quick_cmd; soak_cmd; replay_cmd; show_cmd ]))
