(* Link-failure tolerance (Section 6).

   PSN-based spraying assumes all N equal-cost paths are alive; when a
   ToR-spine link dies mid-transfer, the deployment described in the
   paper detects it and reverts the fabric to ECMP, disabling Themis.
   This example fails a link 50 us into an 8-flow run and shows that
   every flow still completes, with the middleware detached and the
   ToRs back on flow-level hashing. *)

let () =
  let params =
    Network.default_params ~fabric:Leaf_spine.motivation
      ~scheme:(Network.Themis { compensation = true })
  in
  let net = Network.build params in
  let ls = Network.fabric net in
  Format.printf "8 hosts, 2x4 leaf-spine at 100 Gbps, two interleaved rings.@.";
  Format.printf "Themis active: %b@." (Network.themis_active net);

  let done_count = ref 0 in
  ignore
    (Workload.motivation_rings net ~bytes:3_000_000 ~on_complete:(fun qp t ->
         incr done_count;
         Format.printf "  flow %a finished at %a@." Flow_id.pp
           (Rnic.qp_conn qp) Sim_time.pp t));

  (* Monitoring (Pingmesh-style in the paper) reports the failure 50 us
     in; the controller fails the link and triggers the fallback. *)
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let spine0 = ls.Leaf_spine.spines.(0) in
  let link = Option.get (Topology.link_between ls.Leaf_spine.topo tor0 spine0) in
  ignore
    (Engine.schedule (Network.engine net) ~delay:(Sim_time.us 50) (fun () ->
         Format.printf "@.!! link tor0<->spine0 failed at %a: reverting to ECMP@.@."
           Sim_time.pp (Network.now net);
         Network.fail_link net ~link_id:link));

  Network.run net ~until:(Sim_time.sec 10);

  Format.printf "@.Themis active after failure: %b@." (Network.themis_active net);
  Format.printf "Flows completed: %d / 8@." !done_count;
  Format.printf "Packets lost to the dying link: counted and retransmitted (%d retx).@."
    (Network.total_retx_packets net);
  if !done_count <> 8 then exit 1
