type params = {
  n_paths : int;
  bw : Rate.t;
  rtt_last : Sim_time.t;
  n_nic : int;
  n_qp : int;
  mtu : int;
  factor : float;
}

let table1 =
  {
    n_paths = 256;
    bw = Rate.gbps 400.;
    rtt_last = Sim_time.us 2;
    n_nic = 16;
    n_qp = 100;
    mtu = 1500;
    factor = Psn_queue.default_factor;
  }

let pathmap_bytes p = p.n_paths * 2

let n_entries p =
  Psn_queue.capacity_for ~bw:p.bw ~rtt:p.rtt_last ~mtu:p.mtu ~factor:p.factor

let per_qp_bytes p = Flow_table.entry_bytes + n_entries p

let total_bytes p = pathmap_bytes p + (per_qp_bytes p * p.n_qp * p.n_nic)

let fraction_of_sram p ~sram_bytes = float_of_int (total_bytes p) /. float_of_int sram_bytes

let tofino_sram_bytes = 64 * 1024 * 1024

let pp_report ppf p =
  let open Format in
  fprintf ppf "Table 1: Symbols and reference values@.";
  fprintf ppf "  N_paths  (equal-cost paths)      %d@." p.n_paths;
  fprintf ppf "  BW       (last-hop bandwidth)    %a@." Rate.pp p.bw;
  fprintf ppf "  RTT_last (last-hop RTT)          %a@." Sim_time.pp p.rtt_last;
  fprintf ppf "  N_NIC    (NICs per ToR)          %d@." p.n_nic;
  fprintf ppf "  N_QP     (cross-rack QPs / NIC)  %d@." p.n_qp;
  fprintf ppf "  MTU                              %dB@." p.mtu;
  fprintf ppf "  F        (expansion factor)      %.1f@." p.factor;
  fprintf ppf "Derived (Section 4):@.";
  fprintf ppf "  M_PathMap = %d B@." (pathmap_bytes p);
  fprintf ppf "  N_entries = %d@." (n_entries p);
  fprintf ppf "  M_QP      = %d B@." (per_qp_bytes p);
  fprintf ppf "  M_total   = %d B (%.1f KB)@." (total_bytes p)
    (float_of_int (total_bytes p) /. 1024.);
  fprintf ppf "  share of 64MB Tofino SRAM = %.2f%%@."
    (100. *. fraction_of_sram p ~sram_bytes:tofino_sram_bytes)
