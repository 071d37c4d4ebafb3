(* Sharded execution of one (spec, scheme) fuzz scenario: one OCaml
   domain per shard, each building the FULL network from the identical
   deterministic code path (same RNG splits, same registration order).
   Objects owned by other shards are inert replicas; every fabric
   propagation crosses through the canonical ring machinery
   (Shard_net), so results are invariant in the shard count.

   The set-up, the oracle view, the judging and the drive loop are
   Fuzz_run's and Shard.drive's; only the step differs: each 5 ms span
   is cut into conservative lookahead windows. *)

type stats = { st_events : int; st_spilled : int }

exception Unsupported of string
exception Crashed of string

(* Window-barrier flag bits (OR-reduced across shards). *)
let bit_active = 1 (* Shard_net.activity_flag *)
let bit_running = 2 (* some owned transfer not yet complete *)
let bit_crash = 4 (* a shard died; peers abort at the same phase *)

type shard_out = {
  so_sc : Fuzz_run.scenario;
  so_ctx : Telemetry.t option;
  so_lb : (string * int) list;
  so_events : int;
}

let peer_crash_msg = "peer shard crashed"

let sim_phase (spec : Fuzz_spec.t) ~scheme ~part ~rings sid =
  (* Spawned domains start with fresh domain-local state; shard 0 runs
     on the calling domain and must reset exactly as the serial runner
     does. *)
  if sid = 0 then Fabric_core.reset_run_state ();
  let owned = Shard_part.owned part sid in
  let sc = Fuzz_run.setup ~owned spec ~scheme in
  (* Control-plane events are replicated: every shard applies the same
     state change to its replica at the same simulated time (telemetry
     for them is gated to shard 0 via quiet_control). *)
  let net = Option.get sc.Fuzz_run.ls in
  Network.set_quiet_control net (sid <> 0);
  let sh = Shard_net.wrap rings ~sid net in
  let eng = Network.engine net in
  let barrier = Shard_net.barrier rings in
  let owned_pending () =
    List.exists
      (fun (fp : Fuzz_oracle.flow_probe) ->
        fp.Fuzz_oracle.fp_done = None
        && owned fp.Fuzz_oracle.fp_transfer.Fuzz_spec.src)
      sc.Fuzz_run.flows
  in
  let my_flags () =
    Shard_net.activity_flag sh
    lor if owned_pending () then bit_running else 0
  in
  let lookahead = Shard_part.lookahead part in
  let run ~until = Engine.run ~until eng in
  let drain ~upto = Shard_net.drain sh ~upto in
  let await_status () =
    let c = Domain_barrier.await barrier ~flags:(my_flags ()) in
    if c land bit_crash <> 0 then raise (Shard.Aborted c);
    c
  in
  (* Status barrier before the first decision, so every shard agrees on
     loop entry (mirrors the serial all_done check at time 0). *)
  let combined = ref (await_status ()) in
  let step ~until =
    combined :=
      if !combined land bit_active = 0 then begin
        (* Fleet-wide quiescence: no shard holds an event and every ring
           is empty, so nothing can happen before [until] — jump there
           like the serial engine's empty-queue run.  All shards take
           this branch together (the decision reads the shared combined
           flags). *)
        Engine.run ~until eng;
        await_status ()
      end
      else
        Shard.advance ~abort_mask:bit_crash ~barrier ~lookahead ~run
          ~flags:my_flags ~drain ~from:(Engine.now eng) ~until_:until ()
  in
  Shard.drive eng ~step
    ~finished:(fun () -> !combined land bit_running = 0)
    ~deadline:spec.Fuzz_spec.deadline_ns ~settle:(Fuzz_run.settle_time spec);
  sc

let extract sc =
  {
    so_sc = sc;
    so_ctx = Telemetry.ctx ();
    so_lb = Lb_state.counters ();
    so_events = Engine.events_processed (Fabric_core.engine sc.Fuzz_run.core);
  }

let domain_main spec ~scheme ~part ~rings sid =
  match sim_phase spec ~scheme ~part ~rings sid with
  | sc -> ( try Ok (extract sc) with exn -> Error (Printexc.to_string exn))
  | exception Shard.Aborted _ -> Error peer_crash_msg
  | exception exn ->
      let msg = Printexc.to_string exn in
      (* Zombie pump: one barrier visit with the crash bit raised.
         Every peer is blocked on (or headed to) this same phase, sees
         the bit in the combined flags, and aborts — nobody is left
         waiting on a party that will never arrive. *)
      ignore
        (Domain_barrier.await (Shard_net.barrier rings) ~flags:bit_crash);
      Error msg

let run_scheme_full (spec : Fuzz_spec.t) ~scheme ~shards :
    Fuzz_run.outcome * stats =
  (match Shard_part.supported spec ~shards with
  | Ok () -> ()
  | Error m -> raise (Unsupported m));
  (match Shard_part.ensure_domains ~shards with
  | Ok () -> ()
  | Error m -> raise (Unsupported m));
  Fuzz_run.validate spec;
  let scheme_v = Fuzz_run.scheme_of scheme in
  let part =
    match Shard_part.of_shape spec.Fuzz_spec.shape ~shards with
    | Ok p -> p
    | Error m -> raise (Unsupported m)
  in
  let rings = Shard_net.make_rings ~part in
  let others =
    Array.init (shards - 1) (fun i ->
        Domain.spawn (fun () ->
            domain_main spec ~scheme:scheme_v ~part ~rings (i + 1)))
  in
  let r0 = domain_main spec ~scheme:scheme_v ~part ~rings 0 in
  let results = Array.append [| r0 |] (Array.map Domain.join others) in
  let errs =
    Array.to_list results
    |> List.filter_map (function Error m -> Some m | Ok _ -> None)
  in
  (match errs with
  | [] -> ()
  | ms -> (
      (* Prefer the original exception over the peers' abort notices. *)
      match List.filter (fun m -> m <> peer_crash_msg) ms with
      | m :: _ -> raise (Crashed m)
      | [] -> raise (Crashed (List.hd ms))));
  let sos =
    Array.map (function Ok so -> so | Error _ -> assert false) results
  in
  let owner node = sos.(Shard_part.shard_of part node).so_sc in
  let n_hosts = Fuzz_spec.n_hosts_of_shape spec.Fuzz_spec.shape in
  (* Per-host state (NIC counters, receive contexts, completion times)
     lives on the owner shard's instance; drop counters are summed over
     EVERY replica, because a cross-shard in-flight link-down drop is
     booked on the consumer's replica of the transmitting port. *)
  let nics =
    List.init n_hosts (fun h -> Fabric_core.nic (owner h).Fuzz_run.core ~host:h)
  in
  let flows =
    List.mapi
      (fun i (tr : Fuzz_spec.transfer) ->
        {
          (List.nth (owner tr.Fuzz_spec.src).Fuzz_run.flows i) with
          Fuzz_oracle.fp_dst_nic = List.nth nics tr.Fuzz_spec.dst;
        })
      spec.Fuzz_spec.transfers
  in
  (* Per-domain LB policy counters, merged in shard-id order. *)
  let merged_lb =
    Array.fold_left
      (fun acc so ->
        List.fold_left
          (fun acc (k, v) ->
            if List.mem_assoc k acc then
              List.map (fun (k', v') -> if k' = k then (k', v' + v) else (k', v')) acc
            else acc @ [ (k, v) ])
          acc so.so_lb)
      [] sos
  in
  (* Routing and compiled weights are replica-identical, so shard 0's
     network answers the Spritz check.  Sharded specs carry no ppm
     knobs (Shard_part.supported), so every fault layer is inert. *)
  let sc0 = sos.(0).so_sc in
  let view =
    Fuzz_run.view spec ~scheme:scheme_v
      ~cores:(Array.to_list (Array.map (fun so -> so.so_sc.Fuzz_run.core) sos))
      ~nics ~ls:sc0.Fuzz_run.ls
      ~lb:(fun () -> merged_lb)
      ~fault:sc0.Fuzz_run.fault ~flows
  in
  (* Merge the per-domain telemetry contexts (deterministic shard-id
     order) and install the result, mirroring the serial post-run state
     where the run's context is the current one. *)
  (match
     Array.to_list sos |> List.filter_map (fun so -> so.so_ctx)
   with
  | [] -> Telemetry.disable ()
  | ctxs -> Telemetry.use (Telemetry.merge ctxs));
  ( Fuzz_run.judge spec ~scheme view,
    {
      st_events = Array.fold_left (fun a so -> a + so.so_events) 0 sos;
      st_spilled = Shard_net.spilled rings;
    } )

let run_scheme spec ~scheme ~shards = fst (run_scheme_full spec ~scheme ~shards)

let run_scheme_safe spec ~scheme ~shards =
  match run_scheme spec ~scheme ~shards with
  | outcome -> outcome
  | exception (Fuzz_run.Bad_spec _ as e) -> raise e
  | exception (Unsupported _ as e) -> raise e
  | exception exn -> Fuzz_run.crashed ~scheme exn

(* Canonicalization for serial-vs-sharded comparison: the merged event
   stream interleaves same-tick events from different domains in
   shard-id order, while the serial stream keeps execution order, so
   equality is judged on the time-sorted line multiset. *)
let canonical_events_jsonl (o : Fuzz_run.outcome) =
  String.split_on_char '\n' o.Fuzz_run.o_events_jsonl
  |> List.filter (fun l -> l <> "")
  |> List.sort String.compare
  |> String.concat "\n"

(* Sampler-fed rows are excluded: the sampler is a pure observer whose
   stop condition reads local queue occupancy, which is
   partition-dependent (the simulated objects it reads are not). *)
let sampler_row line =
  let starts p =
    String.length line >= String.length p
    && String.sub line 0 (String.length p) = p
  in
  starts "port_queue_bytes" || starts "qp_inflight_bytes"

let canonical_metrics_csv () =
  match Telemetry.metrics () with
  | None -> ""
  | Some m ->
      Export.metrics_to_csv m
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && not (sampler_row l))
      |> List.sort String.compare
      |> String.concat "\n"
