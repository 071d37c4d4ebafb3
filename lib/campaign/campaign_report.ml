let metric_or_nan r name =
  match Campaign_result.metric r name with Some v -> v | None -> Float.nan

let fmt_cell v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" v

let render_fig5 ppf (spec : Campaign_spec.t) lookup =
  List.iter
    (fun fabric ->
      List.iter
        (fun coll ->
          List.iter
            (fun mb ->
              List.iter
                (fun seed ->
                  Format.fprintf ppf
                    "@.#### fig5 %s / %s / %d MB / seed %d — tail CT (ms)@.@."
                    (Campaign_spec.fabric_to_string fabric)
                    coll mb seed;
                  Format.fprintf ppf "| scheme |";
                  List.iter
                    (fun (ti, td) -> Format.fprintf ppf " TI=%d,TD=%d |" ti td)
                    spec.dcqcn;
                  Format.fprintf ppf "@.|---|";
                  List.iter (fun _ -> Format.fprintf ppf "---|") spec.dcqcn;
                  Format.fprintf ppf "@.";
                  let cell scheme (ti_us, td_us) =
                    let job =
                      Campaign_spec.Fig5_job
                        { fabric; scheme; coll; mb; ti_us; td_us; seed }
                    in
                    match lookup (Campaign_spec.job_hash job) with
                    | Some r -> metric_or_nan r "tail_ct_ms"
                    | None -> Float.nan
                  in
                  List.iter
                    (fun scheme ->
                      Format.fprintf ppf "| %s |" scheme;
                      List.iter
                        (fun pt -> Format.fprintf ppf " %s |" (fmt_cell (cell scheme pt)))
                        spec.dcqcn;
                      Format.fprintf ppf "@.")
                    spec.schemes;
                  (* The paper's headline: Themis' tail-CT reduction vs AR. *)
                  if
                    List.mem "themis" spec.schemes
                    && List.mem "adaptive" spec.schemes
                  then begin
                    let reductions =
                      List.filter_map
                        (fun pt ->
                          let ar = cell "adaptive" pt and th = cell "themis" pt in
                          if Float.is_nan ar || Float.is_nan th || ar <= 0. then
                            None
                          else Some (100. *. (ar -. th) /. ar))
                        spec.dcqcn
                    in
                    match reductions with
                    | [] -> ()
                    | r :: _ ->
                        let lo = List.fold_left Stdlib.min r reductions in
                        let hi = List.fold_left Stdlib.max r reductions in
                        Format.fprintf ppf
                          "@.Themis vs adaptive routing: %.1f%% ~ %.1f%% lower tail CT@."
                          lo hi
                  end)
                spec.seeds)
            spec.mbs)
        spec.colls)
    spec.fabrics

let render_flat ?(key = "job") ppf title cols rows =
  Format.fprintf ppf "@.#### %s@.@.| %s |" title key;
  List.iter (fun c -> Format.fprintf ppf " %s |" c) cols;
  Format.fprintf ppf "@.|---|";
  List.iter (fun _ -> Format.fprintf ppf "---|") cols;
  Format.fprintf ppf "@.";
  List.iter
    (fun (label, cells) ->
      Format.fprintf ppf "| %s |" label;
      List.iter (fun v -> Format.fprintf ppf " %s |" (fmt_cell v)) cells;
      Format.fprintf ppf "@.")
    rows

(* LB-scheme arena: one scheme x metric table per (scenario, seed), a
   tail-FCT ranking for the headline scenarios, and the Themis-vs-rivals
   comparison (NACK blocking vs reordering-free-by-construction). *)

let arena_cols =
  [
    "tail_fct_us"; "completed_us"; "retx_packets"; "drops"; "ooo_arrivals";
    "nacks_blocked"; "violations";
  ]

let render_arena ppf (spec : Campaign_spec.t) lookup =
  let cell ascheme ascen aseed name =
    match
      lookup
        (Campaign_spec.job_hash
           (Campaign_spec.Arena_job { ascheme; ascen; aseed }))
    with
    | Some r -> metric_or_nan r name
    | None -> Float.nan
  in
  List.iter
    (fun seed ->
      List.iter
        (fun scen ->
          render_flat ~key:"scheme" ppf
            (Printf.sprintf "arena / %s / seed %d" scen seed)
            arena_cols
            (List.map
               (fun scheme ->
                 (scheme, List.map (cell scheme scen seed) arena_cols))
               spec.schemes))
        spec.scens;
      (* Ranking on the scenarios the issue calls out: the clean fabric
         and the persistently congested spine. *)
      List.iter
        (fun scen ->
          if List.mem scen spec.scens then begin
            let ranked =
              List.sort
                (fun (_, a) (_, b) ->
                  (* NaN (missing result) sorts last. *)
                  match (Float.is_nan a, Float.is_nan b) with
                  | true, true -> 0
                  | true, false -> 1
                  | false, true -> -1
                  | false, false -> Float.compare a b)
                (List.map
                   (fun s -> (s, cell s scen seed "tail_fct_us"))
                   spec.schemes)
            in
            Format.fprintf ppf "@.tail-FCT ranking (%s, seed %d):" scen seed;
            List.iteri
              (fun i (s, v) ->
                Format.fprintf ppf "%s %d. %s (%s us)"
                  (if i = 0 then "" else ";")
                  (i + 1) s (fmt_cell v))
              ranked;
            Format.fprintf ppf "@."
          end)
        [ "sym"; "cspine" ];
      (* Themis survives spraying-induced reordering by blocking
         spurious NACKs in the fabric; Sprinklers never reorders in the
         first place.  Put the two mechanisms side by side. *)
      if List.mem "themis" spec.schemes then
        List.iter
          (fun scen ->
            let tb = cell "themis" scen seed "nacks_blocked" in
            let tooo = cell "themis" scen seed "ooo_arrivals" in
            if not (Float.is_nan tb) then begin
              Format.fprintf ppf
                "@.%s: themis absorbed %.0f OOO arrivals by blocking %.0f \
                 spurious NACKs"
                scen tooo tb;
              List.iter
                (fun rival ->
                  let ooo = cell rival scen seed "ooo_arrivals" in
                  if not (Float.is_nan ooo) then
                    Format.fprintf ppf "; %s saw %.0f OOO arrivals" rival ooo)
                [ "sprinklers"; "reps"; "prime"; "spritz" ];
              Format.fprintf ppf ".@."
            end)
          spec.scens)
    spec.seeds

let render ppf ~(spec : Campaign_spec.t) ~lookup () =
  let jobs = Campaign_spec.jobs_of spec in
  let missing =
    List.filter (fun j -> lookup (Campaign_spec.job_hash j) = None) jobs
  in
  Format.fprintf ppf "### campaign %s@.@.spec: `%s`@.@.%d jobs, %d results, %d missing@."
    spec.name
    (Campaign_spec.to_string spec)
    (List.length jobs)
    (List.length jobs - List.length missing)
    (List.length missing);
  (match spec.target with
  | Campaign_spec.Fig5 -> render_fig5 ppf spec lookup
  | Campaign_spec.Fig1 ->
      let cols = [ "goodput_gbps"; "rate_gbps"; "retx_ratio"; "completion_us" ] in
      let rows =
        List.filter_map
          (fun j ->
            match lookup (Campaign_spec.job_hash j) with
            | None -> None
            | Some r ->
                Some
                  ( Campaign_spec.job_to_string j,
                    [
                      metric_or_nan r "avg_goodput_gbps";
                      metric_or_nan r "avg_rate_gbps";
                      metric_or_nan r "avg_retx_ratio";
                      metric_or_nan r "completion_us";
                    ] ))
          jobs
      in
      render_flat ppf "fig1 motivation" cols rows
  | Campaign_spec.Incast ->
      let cols = [ "fct_mean_us"; "fct_p50_us"; "fct_p99_us"; "retx"; "drops" ] in
      let rows =
        List.filter_map
          (fun j ->
            match lookup (Campaign_spec.job_hash j) with
            | None -> None
            | Some r ->
                Some
                  ( Campaign_spec.job_to_string j,
                    List.map (metric_or_nan r) cols ))
          jobs
      in
      render_flat ppf "incast" cols rows
  | Campaign_spec.Ablation ->
      List.iter
        (fun j ->
          match lookup (Campaign_spec.job_hash j) with
          | None -> ()
          | Some r ->
              Format.fprintf ppf "@.#### %s@.@."
                (Campaign_spec.job_to_string j);
              List.iter
                (fun (k, v) -> Format.fprintf ppf "- %s: %s@." k (fmt_cell v))
                r.Campaign_result.metrics)
        jobs
  | Campaign_spec.Workload ->
      let cols =
        [
          "completed"; "live_hwm"; "fct_p50_us"; "fct_p99_us"; "coll_tail_us";
          "retx_packets"; "storm_drops";
        ]
      in
      let rows =
        List.filter_map
          (fun j ->
            match lookup (Campaign_spec.job_hash j) with
            | None -> None
            | Some r ->
                Some
                  ( Campaign_spec.job_to_string j,
                    List.map (metric_or_nan r) cols ))
          jobs
      in
      render_flat ppf "workload" cols rows
  | Campaign_spec.Fuzz_sweep ->
      let total = ref 0 and with_result = ref 0 in
      List.iter
        (fun j ->
          match lookup (Campaign_spec.job_hash j) with
          | None -> ()
          | Some r ->
              incr with_result;
              let f = int_of_float (metric_or_nan r "failures") in
              total := !total + f;
              if f > 0 then
                Format.fprintf ppf "- %s: %d oracle violations@."
                  (Campaign_spec.job_to_string j)
                  f)
        jobs;
      Format.fprintf ppf
        "@.fuzz sweep: %d specs with results, %d oracle violations total@."
        !with_result !total
  | Campaign_spec.Arena -> render_arena ppf spec lookup);
  if missing <> [] then begin
    Format.fprintf ppf "@.missing results:@.";
    List.iter
      (fun j -> Format.fprintf ppf "- `%s`@." (Campaign_spec.job_to_string j))
      missing
  end
