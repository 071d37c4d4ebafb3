(** Adversarial path scenarios for the LB-scheme arena.

    One fixed workload — an all-cross-leaf host permutation with
    staggered starts on a 2-leaf x 4-spine fabric (25 Gbps hosts,
    100 Gbps fabric) — skewed four ways:

    - [sym]: the untouched symmetric fabric (the control column, and
      where the Sprinklers zero-out-of-order gate applies);
    - [cspine]: spine 0 derated to 20 Gbps — a persistently congested
      spine that punishes congestion-oblivious spraying;
    - [asym]: spine 1 at 50 Gbps — mild speed asymmetry;
    - [pathcut]: the leaf0<->spine0 link cut permanently mid-flow —
      post-failure path asymmetry (specs set [shrink_pathset], so
      spraying schemes re-spray over the survivors).

    Scenarios compile to plain {!Fuzz_spec} values, so every arena job
    reuses the fuzz runner and its oracle stack unchanged. *)

val known : string list
(** [["sym"; "cspine"; "asym"; "pathcut"]]. *)

val spec : scen:string -> seed:int -> (Fuzz_spec.t, string) result
