(** ECMP hashing.

    Two hash functions:

    - {!flow_hash}: the deterministic 5-tuple hash a switch uses to pick an
      equal-cost next hop.  It is built so that the UDP source port enters
      the hash {e linearly} (over GF(2)): [flow_hash ~sport:(s lxor d) ... =
      flow_hash ~sport:s ... lxor linear16 d].  This is the "hashing
      linearity" property (Zhang et al., ATC'21) that the paper's PathMap
      construction relies on (Section 3.2, Fig. 3).

    - {!linear16}: the sport entropy function itself, a fixed GF(2)-linear
      map on 16 bits. *)

val linear16 : int -> int
(** GF(2)-linear on the low 16 bits: [linear16 (a lxor b) = linear16 a lxor
    linear16 b] and [linear16 0 = 0]. Result fits in 16 bits. *)

val mix : int -> int
(** A splitmix-style avalanche on a non-negative int (not linear). *)

val flow_hash : src:int -> dst:int -> sport:int -> dport:int -> int
(** Non-negative.  Linear in [sport]: flipping sport bits XORs
    [linear16] of the flipped bits into the result's low 16 bits and
    changes nothing else. *)

val path_of_hash : hash:int -> paths:int -> int
(** Reduce a hash to a path index in [[0, paths)]. When [paths] is a power
    of two this uses the low bits, preserving sport-linearity of path
    selection. *)

val path_of_hash_at : shift:int -> hash:int -> paths:int -> int
(** Like {!path_of_hash} but selecting the bit window starting at [shift].
    Multi-tier fabrics give each tier a distinct [shift] so one sport
    rewrite can steer every hop of the path independently. *)
