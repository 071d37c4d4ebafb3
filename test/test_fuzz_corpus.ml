(* Captured fuzz corpus: scenario strings that once exposed bugs or
   exercise corners the generator only reaches occasionally.  Each is
   replayed under every scheme it names and must hold all oracles. *)

let corpus =
  [
    (* Regression: GBN sender crash ("sequence N not in any active
       message").  A NACK rewound [next_seq] below a delayed cumulative
       ACK's [una]; the stale cursor then transmitted from a popped
       message.  Found by seed 31; fixed by clamping [next_seq] to
       [una] in [Sender.advance_una]. *)
    ( "gbn rewind vs delayed cumulative ack",
      "fz1;seed=31;shape=ls:4:3:2:100:40:1649;tr=gbn;qf=150;ppcap=9216;\
       jit=1970;drop=716;corr=0;dup=0;dly=5881:17755;fmode=shrink;\
       dl=2000000000;schemes=spray;flows=6>5:8776@51914,5>0:41812@45276,\
       0>3:33943@20409,3>6:31930@65361;faults=" );
    (* Tiny 256 KiB buffers, undersized ring (F = 1.0), drops + dups +
       delays, and two fabric faults (one permanent) under shrink-mode
       recovery — the densest fault mix the quick profile produces. *)
    ( "tiny buffers, dups, permanent fault, shrink mode",
      "fz1;seed=3;shape=ls:3:4:4:25:100:646;tr=sr;qf=100;ppcap=256;jit=1493;\
       drop=4374;corr=0;dup=2057;dly=6539:4633;fmode=shrink;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=2>5:1830@17439,5>3:3457@24891,\
       3>6:1138@34559,6>2:36177@78582;faults=12:123400:0,22:79834:275792" );
    (* 5-to-1 incast into 64 KiB ports with GBN NICs, ~0.5% drops and
       two recovering fabric faults: maximal retransmission pressure. *)
    ( "gbn incast, 64KiB ports, heavy drops, two faults",
      "fz1;seed=27;shape=ls:3:4:2:100:100:1701;tr=gbn;qf=200;ppcap=64;jit=0;\
       drop=4830;corr=0;dup=0;dly=0:5081;fmode=ecmp;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=5>2:29046@58071,4>2:29046@48705,\
       5>2:29046@91381,1>2:29046@82521,5>2:29046@74480;faults=\
       14:265759:646620,10:257568:568612" );
    (* k=4 fat tree with an undersized Themis ring (F = 0.25), random
       drops and duplicate deliveries on a ring workload. *)
    ( "fat tree, undersized ring, drops and dups",
      "fz1;seed=12;shape=ft:4:100:1109;tr=sr;qf=25;ppcap=9216;jit=0;\
       drop=2007;corr=0;dup=2260;dly=7496:12111;fmode=ecmp;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=3>10:85542@18338,10>1:85542@33513,\
       1>13:85542@16583,13>2:85542@95551,2>7:85542@4924,7>12:85542@63058,\
       12>15:85542@22721,15>3:85542@46142;faults=" );
    (* Degenerate single-spine leaf-spine: spraying collapses to one
       path, so Eq. 3 must declare every NACK valid. *)
    ( "single spine, tiny everything, drops and dups",
      "fz1;seed=39;shape=ls:3:1:4:25:25:1794;tr=sr;qf=25;ppcap=64;jit=0;\
       drop=3181;corr=0;dup=673;dly=6469:7039;fmode=ecmp;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=4>0:5816@94743,0>9:3785@84518,\
       9>8:67676@55789,8>4:2282@80751;faults=" );
    (* GBN on a fat tree with ~0.5% drops, dups, tiny ports and an
       undersized ring all at once. *)
    ( "fat tree gbn, all knobs hostile",
      "fz1;seed=98;shape=ft:4:40:1797;tr=gbn;qf=25;ppcap=64;jit=0;drop=4829;\
       corr=0;dup=1283;dly=0:5046;fmode=ecmp;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=10>6:3919@79278,5>10:5165@40489,\
       14>11:27071@98258,14>8:2293@29640,3>13:14596@8427;faults=" );
    (* A spine link dies mid-flow (permanently) with Themis enabled:
       the source ToR's compiled forwarding tables must be rebuilt
       around the failure while flows are in flight, and Themis-S must
       shrink its spray set without violating any delivery oracle. *)
    ( "themis link-down mid-flow, compiled-table rebuild",
      "fz1;seed=11;shape=ls:2:4:2:100:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=0>2:200000@5000,2>1:150000@9000,\
       3>0:180000@7000;faults=8:12000:0" );
    (* Rival sprayers under the same link-down-mid-flow scenario as the
       Themis entry above: each policy's behavioural oracle (REPS never
       recycles tainted entropy; Sprinklers stays reordering-free where
       that is asserted; Spritz weights track the live path count across
       the rebuild) must hold while routing reconverges around the
       failure. *)
    ( "reps link-down mid-flow, entropy cache vs rerouting",
      "fz1;seed=11;shape=ls:2:4:2:100:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=reps;flows=0>2:200000@5000,2>1:150000@9000,\
       3>0:180000@7000;faults=8:12000:0" );
    ( "prime link-down mid-flow, adaptive part vs rerouting",
      "fz1;seed=11;shape=ls:2:4:2:100:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=prime;flows=0>2:200000@5000,2>1:150000@9000,\
       3>0:180000@7000;faults=8:12000:0" );
    ( "sprinklers link-down mid-flow, stripes vs rerouting",
      "fz1;seed=11;shape=ls:2:4:2:100:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=sprinklers;flows=0>2:200000@5000,2>1:150000@9000,\
       3>0:180000@7000;faults=8:12000:0" );
    ( "spritz link-down mid-flow, weights track path count",
      "fz1;seed=11;shape=ls:2:4:2:100:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=spritz;flows=0>2:200000@5000,2>1:150000@9000,\
       3>0:180000@7000;faults=8:12000:0" );
    (* Persistently congested spine (spine 0 derated 100G -> 20G) under
       Themis: skew-induced reordering by the hundreds, so Eq. 3 must
       block the spurious NACK storm while the delivery oracles still
       hold — the arena's cspine scenario (Arena_scen, seed 31, where
       Themis blocks ~330 spurious NACKs), frozen as a one-line
       reproducer. *)
    ( "themis congested spine, nack blocking under skew",
      "fz1;seed=31;shape=ls:2:4:4:25:100:1000;tr=sr;qf=200;ppcap=256;\
       jit=0;drop=0;corr=0;dup=0;dly=0:1;fmode=shrink;dl=20000000;\
       schemes=themis;flows=0>4:300000@0,1>5:300000@1000,2>6:300000@2000,\
       3>7:300000@3000,4>0:300000@4000,5>1:300000@5000,6>2:300000@6000,\
       7>3:300000@7000;faults=;sspine=0:20" );
    (* A fabric link dies mid-flow on a 4-leaf fabric, with asymmetric
       host/fabric rates so serialization grids never tie.  The name
       dates from the removed sharded simulator (DESIGN.md §14), whose
       2-shard cut ran straight through this link; the entry stays
       frozen under its old name and keeps the link-down-in-flight
       behaviour pinned under every scheme it names. *)
    ( "cross-shard link-down mid-flow, asymmetric rates",
      "fz1;seed=13;shape=ls:4:2:2:40:100:1000;tr=sr;qf=100;ppcap=9216;\
       jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=shrink;dl=2000000000;\
       schemes=spray+themis;flows=0>5:200000@0,1>7:151500@2333,\
       6>0:119300@4741;faults=9:12000:0" );
    (* Duplicates + corruption + drops on a single-path fabric with GBN:
       exercises the receiver's duplicate/ooo handling when every
       duplicate is in-order-plausible. *)
    ( "single spine gbn, dup + corrupt + drop",
      "fz1;seed=82;shape=ls:2:1:4:40:25:1513;tr=gbn;qf=200;ppcap=9216;jit=0;\
       drop=2695;corr=248;dup=2088;dly=755:1912;fmode=ecmp;dl=2000000000;\
       schemes=ecmp+spray+ar+themis;flows=5>0:27734@81587,0>4:27734@9034,\
       4>7:27734@94380,7>6:27734@57656,6>3:27734@68735,3>2:27734@35204,\
       2>1:27734@61469,1>5:27734@81043;faults=" );
  ]

let replay (name, s) =
  match Fuzz_spec.of_string s with
  | Error e -> Alcotest.failf "%s: unparseable corpus entry: %s" name e
  | Ok spec ->
      List.iter
        (fun o ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s under %s" name o.Fuzz_run.o_scheme)
            []
            (List.map
               (fun v -> v.Fuzz_oracle.oracle ^ ": " ^ v.Fuzz_oracle.detail)
               o.Fuzz_run.o_violations))
        (Fuzz_run.run spec)

let () =
  Alcotest.run "fuzz_corpus"
    [
      ( "replay",
        List.map
          (fun ((name, _) as entry) ->
            Alcotest.test_case name `Quick (fun () -> replay entry))
          corpus );
    ]
