(* Workload generator driver.

     themis_workload_cli run      --preset mix --scheme themis   -- one scenario
     themis_workload_cli run      --spec 'wl1;...' --scheme ecmp,themis
     themis_workload_cli describe --preset failures              -- spec, load math
     themis_workload_cli presets                                 -- named scenarios

   A workload spec is a one-line, integer-exact description of a
   production-style scenario: open-loop arrivals at a target load
   factor, a flow-size distribution, collective overlays and a failure
   script.  Campaign presets (mix / load-sweep / failures) run the same
   specs under the orchestrator with frozen baselines. *)

open Cmdliner

let spec_term =
  let spec_s =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"SPEC" ~doc:"A wl1;... workload spec line.")
  in
  let preset_s =
    Arg.(value & opt (some string) None
         & info [ "preset" ] ~docv:"NAME"
             ~doc:(Printf.sprintf "Named workload: %s."
                     (String.concat ", " Workload_spec.preset_names)))
  in
  let resolve spec_s preset_s =
    match (spec_s, preset_s) with
    | Some _, Some _ -> Error "--spec and --preset are mutually exclusive"
    | Some s, None -> Workload_spec.of_string s
    | None, Some p -> (
        match Workload_spec.preset p with
        | Some spec -> Ok spec
        | None ->
            Error
              (Printf.sprintf "unknown preset %S (have: %s)" p
                 (String.concat ", " Workload_spec.preset_names)))
    | None, None -> Error "one of --spec or --preset is required"
  in
  Term.(const resolve $ spec_s $ preset_s)

let with_spec spec_r f =
  match spec_r with
  | Error e ->
      Format.eprintf "workload: %s@." e;
      2
  | Ok spec -> (
      match Workload_spec.validate spec with
      | Error e ->
          Format.eprintf "workload: invalid spec: %s@." e;
          2
      | Ok () -> f spec)

let override ~load ~seed ~flows (spec : Workload_spec.t) =
  let spec =
    match load with
    | Some l -> { spec with Workload_spec.load_pct = l }
    | None -> spec
  in
  let spec =
    match seed with Some s -> { spec with Workload_spec.wseed = s } | None -> spec
  in
  match flows with
  | Some f -> { spec with Workload_spec.n_flows = f }
  | None -> spec

let load_arg =
  Arg.(value & opt (some int) None
       & info [ "load" ] ~docv:"PCT" ~doc:"Override the spec's load factor.")

let seed_arg =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"N" ~doc:"Override the spec's seed.")

let flows_arg =
  Arg.(value & opt (some int) None
       & info [ "flows" ] ~docv:"N" ~doc:"Override the open-loop flow count.")

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let schemes_arg =
    Arg.(value & opt string "themis"
         & info [ "scheme" ] ~docv:"S[,S...]"
             ~doc:"Routing scheme(s): ecmp, adaptive, random-spray, themis, ...")
  in
  let run spec_r schemes_s load seed flows =
    with_spec spec_r (fun spec ->
        let spec = override ~load ~seed ~flows spec in
        let schemes = String.split_on_char ',' schemes_s in
        Format.printf "spec: %s@." (Workload_spec.to_string spec);
        let rc = ref 0 in
        List.iter
          (fun scheme ->
            match Workload_run.run ~scheme spec with
            | r ->
                Format.printf "%a@." Workload_run.pp r;
                if r.Workload_run.r_completed < r.Workload_run.r_offered then
                  rc := 1
            | exception Workload_run.Bad_workload e ->
                Format.eprintf "workload: %s@." e;
                rc := 2)
          schemes;
        !rc)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload spec under one or more schemes")
    Term.(const run $ spec_term $ schemes_arg $ load_arg $ seed_arg $ flows_arg)

(* ------------------------------------------------------------------ *)
(* describe *)

let describe spec =
  let open Workload_spec in
  let cap = Workload_run.capacity_bps spec in
  let mean = Flow_size.mean_bytes spec.dist in
  let rate =
    Arrival.flows_per_sec ~load_pct:spec.load_pct ~capacity_bps:cap
      ~mean_flow_bytes:mean
  in
  Format.printf "spec:          %s@." (to_string spec);
  Format.printf "fabric:        %s (%d hosts)@."
    (Fuzz_spec.shape_to_string spec.shape)
    (Fuzz_spec.n_hosts_of_shape spec.shape);
  Format.printf "bisection bw:  %.1f Gbps@." (cap /. 1e9);
  Format.printf "flow size:     %s (mean %.0f B, max %d B)@."
    (Flow_size.to_string spec.dist) mean (Flow_size.max_bytes spec.dist);
  Format.printf "arrivals:      %s at %d%% load = %.0f flows/s (gap %.1f us)@."
    (Arrival.process_to_string spec.arrival)
    spec.load_pct rate (1e6 /. rate);
  Format.printf "open-loop:     %d flows (~%.2f ms of arrivals)@." spec.n_flows
    (float_of_int spec.n_flows /. rate *. 1e3);
  List.iter
    (fun c ->
      Format.printf "collective:    %s x%d ranks, %d B, %d iters @@ %d ns@."
        c.coll c.ranks c.coll_bytes c.iters c.coll_start_ns)
    spec.colls;
  let compiled = Failure_script.compile ~shape:spec.shape spec.failures in
  if spec.failures <> [] then
    Format.printf "failures:      %d link events, %d storms@."
      (List.length compiled.Failure_script.link_faults)
      (List.length compiled.Failure_script.storms);
  Format.printf "deadline:      %.1f ms@." (float_of_int spec.deadline_ns /. 1e6);
  0

let describe_cmd =
  let run spec_r load seed flows =
    with_spec spec_r (fun spec -> describe (override ~load ~seed ~flows spec))
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Print a spec's derived load math without running it")
    Term.(const run $ spec_term $ load_arg $ seed_arg $ flows_arg)

(* ------------------------------------------------------------------ *)
(* presets *)

let presets_cmd =
  let run () =
    List.iter
      (fun name ->
        let spec = Option.get (Workload_spec.preset name) in
        Printf.printf "%-10s %s\n" name (Workload_spec.to_string spec))
      Workload_spec.preset_names;
    0
  in
  Cmd.v
    (Cmd.info "presets" ~doc:"List the named workload scenarios")
    Term.(const run $ const ())

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "themis_workload_cli"
             ~doc:"Streaming workload generator: trace-driven flow sizes, \
                   open-loop arrivals, collective overlays, failure scripts")
          [ run_cmd; describe_cmd; presets_cmd ]))
