type result = { minimized : Fuzz_spec.t; runs_used : int; shrunk : bool }

(* Candidate simplifications of [spec], roughly cheapest-win first.
   Each must strictly reduce Fuzz_spec.cost or it is filtered out, which
   guarantees the greedy loop terminates. *)
let candidates (spec : Fuzz_spec.t) : Fuzz_spec.t list =
  let open Fuzz_spec in
  let without_nth n l = List.filteri (fun i _ -> i <> n) l in
  let halves =
    match spec.transfers with
    | [] | [ _ ] -> []
    | ts ->
        let n = List.length ts in
        [
          { spec with transfers = List.filteri (fun i _ -> i < n / 2) ts };
          { spec with transfers = List.filteri (fun i _ -> i >= n / 2) ts };
        ]
  in
  let singles =
    if List.length spec.transfers <= 1 then []
    else
      List.mapi
        (fun i _ -> { spec with transfers = without_nth i spec.transfers })
        spec.transfers
  in
  let fault_removals =
    match spec.link_faults with
    | [] -> []
    | fs ->
        { spec with link_faults = [] }
        :: (if List.length fs > 1 then
              List.mapi
                (fun i _ -> { spec with link_faults = without_nth i fs })
                fs
            else [])
  in
  let knobs =
    [
      { spec with drop_ppm = 0 };
      { spec with corrupt_ppm = 0 };
      { spec with dup_ppm = 0 };
      { spec with delay_ppm = 0 };
      { spec with jitter_ns = 0 };
    ]
  in
  let shorter_messages =
    let halved =
      List.map
        (fun tr ->
          if tr.bytes > Rnic.mtu then { tr with bytes = tr.bytes / 2 }
          else tr)
        spec.transfers
    in
    if halved <> spec.transfers then [ { spec with transfers = halved } ]
    else []
  in
  let immediate_starts =
    let zeroed = List.map (fun tr -> { tr with start_ns = 0 }) spec.transfers in
    if zeroed <> spec.transfers then [ { spec with transfers = zeroed } ] else []
  in
  let defaults =
    (if spec.queue_factor_pct < 150 then
       [ { spec with queue_factor_pct = 150 } ]
     else [])
    @
    if spec.per_port_kb < 9216 then [ { spec with per_port_kb = 9216 } ] else []
  in
  fault_removals @ knobs @ halves @ singles @ shorter_messages
  @ immediate_starts @ defaults

let minimize ?(budget = 48) ~(spec : Fuzz_spec.t) ~scheme () =
  let runs = ref 0 in
  let still_fails candidate =
    incr runs;
    match Fuzz_run.run_scheme_safe candidate ~scheme with
    | outcome -> Fuzz_run.failed outcome
    | exception Fuzz_run.Bad_spec _ -> false
  in
  let narrowed = { spec with Fuzz_spec.schemes = [ scheme ] } in
  let rec fixpoint current shrunk =
    if !runs >= budget then (current, shrunk)
    else
      let cost = Fuzz_spec.cost current in
      let next =
        List.find_opt
          (fun c -> Fuzz_spec.cost c < cost && !runs < budget && still_fails c)
          (candidates current)
      in
      match next with
      | Some simpler -> fixpoint simpler true
      | None -> (current, shrunk)
  in
  let minimized, shrunk = fixpoint narrowed false in
  { minimized; runs_used = !runs; shrunk }
