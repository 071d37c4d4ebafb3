(* Network.scheme string round-trips: every constructor must survive
   scheme_of_string (scheme_to_string s), and the CLI aliases must parse. *)

let scheme =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Network.scheme_to_string s))
    ( = )

let all_schemes =
  [
    Network.Ecmp;
    Network.Adaptive;
    Network.Random_spray;
    Network.Psn_spray_only;
    Network.Themis { compensation = true };
    Network.Themis { compensation = false };
    Network.Reps;
    Network.Prime;
    Network.Sprinklers;
    Network.Spritz;
  ]

let test_roundtrip () =
  List.iter
    (fun s ->
      match Network.scheme_of_string (Network.scheme_to_string s) with
      | Ok s' ->
          Alcotest.check scheme (Network.scheme_to_string s) s s'
      | Error e ->
          Alcotest.failf "%s did not round-trip: %s"
            (Network.scheme_to_string s) e)
    all_schemes

let test_aliases () =
  (match Network.scheme_of_string "ar" with
  | Ok s -> Alcotest.check scheme "ar" Network.Adaptive s
  | Error e -> Alcotest.failf "ar: %s" e);
  match Network.scheme_of_string "spray" with
  | Ok s -> Alcotest.check scheme "spray" Network.Random_spray s
  | Error e -> Alcotest.failf "spray: %s" e

(* Every spelling the former fuzz-runner and Network tables accepted, with
   the scheme each parsed to and the fat-tree (themis, compensation, lb)
   row the fuzz runner derived for it. *)
let spellings =
  let ft themis compensation lb = (themis, compensation, lb) in
  let plain lb = ft false true lb in
  [
    ("ecmp", Network.Ecmp, plain Lb_policy.Ecmp);
    ("ar", Network.Adaptive, plain Lb_policy.Adaptive);
    ("adaptive", Network.Adaptive, plain Lb_policy.Adaptive);
    ("spray", Network.Random_spray, plain Lb_policy.Random_spray);
    ("random-spray", Network.Random_spray, plain Lb_policy.Random_spray);
    ("psn-spray", Network.Psn_spray_only, plain Lb_policy.Psn_spray);
    ("psn-spray-only", Network.Psn_spray_only, plain Lb_policy.Psn_spray);
    ( "themis",
      Network.Themis { compensation = true },
      ft true true Lb_policy.Ecmp );
    ( "themis-nocomp",
      Network.Themis { compensation = false },
      ft true false Lb_policy.Ecmp );
    ("reps", Network.Reps, plain Lb_policy.Reps);
    ("prime", Network.Prime, plain Lb_policy.Prime);
    ("sprinklers", Network.Sprinklers, plain Lb_policy.Sprinklers);
    ("spritz", Network.Spritz, plain Lb_policy.Spritz);
  ]

let test_spellings () =
  List.iter
    (fun (name, expect, (themis, compensation, lb)) ->
      match Network.scheme_of_string name with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok s ->
          Alcotest.check scheme name expect s;
          let net =
            Fat_tree_net.build
              { (Fat_tree_net.default_params ~themis:false ()) with scheme = s }
          in
          let edge =
            Fat_tree_net.switch net
              ~node:(Fat_tree_net.fat_tree net).Fat_tree.edges.(0)
          in
          Alcotest.(check bool) (name ^ ": fat-tree themis") themis
            (Switch.themis_d edge <> None);
          Alcotest.(check bool) (name ^ ": fat-tree compensation") compensation
            (match s with Network.Themis c -> c.compensation | _ -> true);
          Alcotest.(check string) (name ^ ": fat-tree lb")
            (Lb_policy.to_string lb)
            (Lb_policy.to_string (Switch.config edge).Switch.lb))
    spellings

let test_unknown_rejected () =
  match Network.scheme_of_string "warp-drive" with
  | Ok _ -> Alcotest.fail "nonsense string parsed"
  | Error _ -> ()

(* Spritz sprays in proportion to downstream path counts, so the
   compiled weight rows at a ToR must sum to the live path count toward
   a cross-leaf destination — and track it through fail/restore. *)
let test_spritz_weights_track_failures () =
  let params =
    Network.default_params ~fabric:Leaf_spine.motivation ~scheme:Network.Spritz
  in
  let net = Network.build params in
  let ls = Network.fabric net in
  let tor0 = ls.Leaf_spine.leaves.(0) in
  let dst = Leaf_spine.host ls ~leaf:1 ~index:0 in
  let sum () =
    Array.fold_left ( + ) 0
      (Switch.compiled_path_weights (Network.switch net ~node:tor0) ~dst)
  in
  Alcotest.(check int) "full fabric" 4 (sum ());
  let link =
    Option.get
      (Topology.link_between ls.Leaf_spine.topo tor0 ls.Leaf_spine.spines.(0))
  in
  Network.fail_link net ~link_id:link;
  Alcotest.(check int)
    "weights follow routing after failure"
    (Routing.path_count (Network.routing net) ~src:tor0 ~dst)
    (sum ());
  Alcotest.(check int) "three surviving paths" 3 (sum ());
  Network.restore_link net ~link_id:link;
  Alcotest.(check int) "restored" 4 (sum ())

let test_strings_distinct () =
  let strings = List.map Network.scheme_to_string all_schemes in
  Alcotest.(check int)
    "no two schemes share a string"
    (List.length strings)
    (List.length (List.sort_uniq String.compare strings))

let () =
  Alcotest.run "scheme"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "every constructor" `Quick test_roundtrip;
          Alcotest.test_case "aliases" `Quick test_aliases;
          Alcotest.test_case "every runner spelling" `Quick test_spellings;
          Alcotest.test_case "unknown rejected" `Quick test_unknown_rejected;
          Alcotest.test_case "strings distinct" `Quick test_strings_distinct;
        ] );
      ( "spritz",
        [
          Alcotest.test_case "weights track fail/restore" `Quick
            test_spritz_weights_track_failures;
        ] );
    ]
