type issue = { i_job : string; i_what : string }

type verdict = {
  g_band_checks : int;
  g_shape_checks : int;
  g_issues : issue list;
}

let ok v = v.g_issues = []

let pp_verdict ppf v =
  Format.fprintf ppf "gate: %d band checks, %d shape checks, %d issues"
    v.g_band_checks v.g_shape_checks (List.length v.g_issues);
  List.iter
    (fun i -> Format.fprintf ppf "@.  GATE %s: %s" i.i_job i.i_what)
    v.g_issues

let within_band ~tol_pct ~base ~cur =
  Float.abs (cur -. base) <= (tol_pct /. 100. *. Float.abs base) +. 1e-9

(* ------------------------------------------------------------------ *)

let band_checks ~tol_pct ~baseline ~lookup =
  let checks = ref 0 and issues = ref [] in
  List.iter
    (fun (b : Campaign_result.t) ->
      match Campaign_spec.job_of_string b.job with
      | Error e ->
          issues :=
            { i_job = b.job; i_what = "baseline job does not parse: " ^ e }
            :: !issues
      | Ok job -> (
          match lookup b.hash with
          | None ->
              issues :=
                { i_job = b.job; i_what = "no current result (run first)" }
                :: !issues
          | Some (cur : Campaign_result.t) ->
              List.iter
                (fun name ->
                  match Campaign_result.metric b name with
                  | None -> ()
                  | Some base -> (
                      incr checks;
                      match Campaign_result.metric cur name with
                      | None ->
                          issues :=
                            {
                              i_job = b.job;
                              i_what =
                                Printf.sprintf "metric %s missing from current result" name;
                            }
                            :: !issues
                      | Some c ->
                          if not (within_band ~tol_pct ~base ~cur:c) then
                            issues :=
                              {
                                i_job = b.job;
                                i_what =
                                  Printf.sprintf
                                    "%s = %s outside ±%.0f%% of baseline %s" name
                                    (Campaign_json.float_to_string c) tol_pct
                                    (Campaign_json.float_to_string base);
                              }
                              :: !issues))
                (Campaign_runner.headline_metrics job)))
    baseline;
  (!checks, !issues)

(* ------------------------------------------------------------------ *)
(* Shape invariants over the current results. *)

let tail_of lookup job =
  Option.bind (lookup (Campaign_spec.job_hash job)) (fun r ->
      Campaign_result.metric r "tail_ct_ms")

let shape_checks ~slack_pct ~lookup ~jobs =
  let slack = 1. +. (slack_pct /. 100.) in
  let checks = ref 0 and issues = ref [] in
  let push job what = issues := { i_job = job; i_what = what } :: !issues in
  (* Fig. 5 ordering per grid point: collect the points, then compare the
     scheme triple at each. *)
  let points = Hashtbl.create 16 in
  List.iter
    (fun j ->
      match j with
      | Campaign_spec.Fig5_job p ->
          Hashtbl.replace points
            (p.fabric, p.coll, p.mb, p.ti_us, p.td_us, p.seed)
            ()
      | _ -> ())
    jobs;
  Hashtbl.iter
    (fun (fabric, coll, mb, ti_us, td_us, seed) () ->
      let job scheme =
        Campaign_spec.Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed }
      in
      let pair lo hi =
        match (tail_of lookup (job lo), tail_of lookup (job hi)) with
        | Some l, Some h ->
            incr checks;
            if l > h *. slack then
              push
                (Campaign_spec.job_to_string (job lo))
                (Printf.sprintf
                   "ordering violated: tail_ct %s=%.3fms > %.0f%%-slack x %s=%.3fms"
                   lo l slack_pct hi h)
        | _ -> ()
      in
      pair "themis" "adaptive";
      pair "adaptive" "ecmp")
    points;
  (* Incast: Themis must not be worse than ECMP at the p99. *)
  let incast_points = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j with
      | Campaign_spec.Incast_job p ->
          Hashtbl.replace incast_points (p.fanin, p.mb, p.seed) ()
      | _ -> ())
    jobs;
  Hashtbl.iter
    (fun (fanin, mb, seed) () ->
      let job scheme = Campaign_spec.Incast_job { scheme; fanin; mb; seed } in
      let p99 scheme =
        Option.bind
          (lookup (Campaign_spec.job_hash (job scheme)))
          (fun r -> Campaign_result.metric r "fct_p99_us")
      in
      match (p99 "themis", p99 "ecmp") with
      | Some th, Some ec ->
          incr checks;
          if th > ec *. slack then
            push
              (Campaign_spec.job_to_string (job "themis"))
              (Printf.sprintf
                 "ordering violated: p99 themis=%.1fus > %.0f%%-slack x ecmp=%.1fus"
                 th slack_pct ec)
      | _ -> ())
    incast_points;
  (* Workload: every offered flow and every collective overlay completed
     before the spec's deadline — a run that leaves traffic unfinished is
     broken regardless of how the FCT numbers look. *)
  List.iter
    (fun j ->
      match j with
      | Campaign_spec.Workload_job _ -> (
          match lookup (Campaign_spec.job_hash j) with
          | None -> ()
          | Some r ->
              let m = Campaign_result.metric r in
              (match (m "completed", m "offered") with
              | Some c, Some o ->
                  incr checks;
                  if c < o then
                    push
                      (Campaign_spec.job_to_string j)
                      (Printf.sprintf "%d of %d offered flows unfinished"
                         (int_of_float (o -. c))
                         (int_of_float o))
              | _ -> push (Campaign_spec.job_to_string j) "no completion metrics");
              match (m "colls_done", m "colls_total") with
              | Some d, Some t ->
                  incr checks;
                  if d < t then
                    push
                      (Campaign_spec.job_to_string j)
                      (Printf.sprintf "%d of %d collectives unfinished"
                         (int_of_float (t -. d))
                         (int_of_float t))
              | _ -> ())
      | _ -> ())
    jobs;
  (* Arena: zero fuzz-oracle violations for every cell (the policy
     invariant oracles ride inside that count), and Sprinklers on the
     clean symmetric fabric must produce zero out-of-order arrivals —
     reordering-free by construction, so any OOO is a policy bug, not
     noise. *)
  List.iter
    (fun j ->
      match j with
      | Campaign_spec.Arena_job a -> (
          match lookup (Campaign_spec.job_hash j) with
          | None -> ()
          | Some r ->
              (incr checks;
               match Campaign_result.metric r "violations" with
               | Some 0. -> ()
               | Some f ->
                   push
                     (Campaign_spec.job_to_string j)
                     (Printf.sprintf "%d fuzz oracle violations"
                        (int_of_float f))
               | None ->
                   push (Campaign_spec.job_to_string j) "no violations metric");
              if a.ascheme = "sprinklers" && a.ascen = "sym" then begin
                incr checks;
                match Campaign_result.metric r "ooo_arrivals" with
                | Some 0. -> ()
                | Some o ->
                    push
                      (Campaign_spec.job_to_string j)
                      (Printf.sprintf
                         "%d out-of-order arrivals from a reordering-free \
                          scheme on a symmetric fabric"
                         (int_of_float o))
                | None ->
                    push
                      (Campaign_spec.job_to_string j)
                      "no ooo_arrivals metric"
              end)
      | _ -> ())
    jobs;
  (* Fuzz: zero oracle violations, always. *)
  List.iter
    (fun j ->
      match j with
      | Campaign_spec.Fuzz_job _ -> (
          match lookup (Campaign_spec.job_hash j) with
          | None -> ()
          | Some r -> (
              incr checks;
              match Campaign_result.metric r "failures" with
              | Some 0. -> ()
              | Some f ->
                  push
                    (Campaign_spec.job_to_string j)
                    (Printf.sprintf "%d fuzz oracle violations" (int_of_float f))
              | None ->
                  push (Campaign_spec.job_to_string j) "no failures metric"))
      | _ -> ())
    jobs;
  (!checks, !issues)

let check ?(tol_pct = 25.) ?(slack_pct = 5.) ~baseline ~lookup ~jobs () =
  let band_n, band_issues = band_checks ~tol_pct ~baseline ~lookup in
  let shape_n, shape_issues = shape_checks ~slack_pct ~lookup ~jobs in
  {
    g_band_checks = band_n;
    g_shape_checks = shape_n;
    g_issues = List.rev (shape_issues @ band_issues);
  }
