type target = Fig1 | Fig5 | Incast | Ablation | Fuzz_sweep | Workload | Arena

let target_to_string = function
  | Fig1 -> "fig1"
  | Fig5 -> "fig5"
  | Incast -> "incast"
  | Ablation -> "ablation"
  | Fuzz_sweep -> "fuzz"
  | Workload -> "workload"
  | Arena -> "arena"

let target_of_string = function
  | "fig1" -> Ok Fig1
  | "fig5" -> Ok Fig5
  | "incast" -> Ok Incast
  | "ablation" -> Ok Ablation
  | "fuzz" -> Ok Fuzz_sweep
  | "workload" -> Ok Workload
  | "arena" -> Ok Arena
  | s -> Error (Printf.sprintf "unknown target %S" s)

type fabric =
  | Eval8
  | Paper
  | Ls_fab of { leaves : int; spines : int; hosts : int; gbps : int }

let fabric_to_string = function
  | Eval8 -> "eval8"
  | Paper -> "paper"
  | Ls_fab { leaves; spines; hosts; gbps } ->
      Printf.sprintf "ls:%d:%d:%d:%d" leaves spines hosts gbps

let ( let* ) = Result.bind

let fabric_of_string s =
  match String.split_on_char ':' s with
  | [ "eval8" ] -> Ok Eval8
  | [ "paper" ] -> Ok Paper
  | [ "ls"; a; b; c; d ] ->
      let* leaves = Spec_line.int_of a ~what:"fabric" in
      let* spines = Spec_line.int_of b ~what:"fabric" in
      let* hosts = Spec_line.int_of c ~what:"fabric" in
      let* gbps = Spec_line.int_of d ~what:"fabric" in
      Ok (Ls_fab { leaves; spines; hosts; gbps })
  | _ -> Error (Printf.sprintf "bad fabric %S" s)

let leaf_spine_of_fabric = function
  | Eval8 -> Experiment.scaled_eval_fabric
  | Paper -> Leaf_spine.paper_eval
  | Ls_fab { leaves; spines; hosts; gbps } ->
      {
        Leaf_spine.paper_eval with
        Leaf_spine.n_leaves = leaves;
        n_spines = spines;
        hosts_per_leaf = hosts;
        host_bw = Rate.gbps (float_of_int gbps);
        fabric_bw = Rate.gbps (float_of_int gbps);
      }

type t = {
  name : string;
  target : target;
  fabrics : fabric list;
  transports : string list;
  schemes : string list;
  colls : string list;
  mbs : int list;
  dcqcn : (int * int) list;
  fanins : int list;
  studies : string list;
  wnames : string list;
  loads : int list;
  scens : string list;
  profile : string;
  seeds : int list;
}

type job =
  | Fig1_job of { transport : string; mb : int; seed : int }
  | Fig5_job of {
      fabric : fabric;
      scheme : string;
      coll : string;
      mb : int;
      ti_us : int;
      td_us : int;
      seed : int;
    }
  | Incast_job of { scheme : string; fanin : int; mb : int; seed : int }
  | Ablation_job of { study : string; seed : int }
  | Fuzz_job of { soak : bool; seed : int }
  | Workload_job of { wname : string; wscheme : string; load : int; wseed : int }
  | Arena_job of { ascheme : string; ascen : string; aseed : int }

let equal = ( = )
let equal_job = ( = )

(* ------------------------------------------------------------------ *)
(* Grid expansion: fixed nesting order so the job list (and therefore
   sharding, reports and baselines) is deterministic. *)

let jobs_of t =
  let cart axis f = List.concat_map f axis in
  match t.target with
  | Fig1 ->
      cart t.transports (fun transport ->
          cart t.mbs (fun mb ->
              List.map (fun seed -> Fig1_job { transport; mb; seed }) t.seeds))
  | Fig5 ->
      cart t.fabrics (fun fabric ->
          cart t.schemes (fun scheme ->
              cart t.colls (fun coll ->
                  cart t.mbs (fun mb ->
                      cart t.dcqcn (fun (ti_us, td_us) ->
                          List.map
                            (fun seed ->
                              Fig5_job
                                { fabric; scheme; coll; mb; ti_us; td_us; seed })
                            t.seeds)))))
  | Incast ->
      cart t.schemes (fun scheme ->
          cart t.fanins (fun fanin ->
              cart t.mbs (fun mb ->
                  List.map
                    (fun seed -> Incast_job { scheme; fanin; mb; seed })
                    t.seeds)))
  | Ablation ->
      cart t.studies (fun study ->
          List.map (fun seed -> Ablation_job { study; seed }) t.seeds)
  | Fuzz_sweep ->
      List.map (fun seed -> Fuzz_job { soak = t.profile = "soak"; seed }) t.seeds
  | Workload ->
      cart t.wnames (fun wname ->
          cart t.schemes (fun wscheme ->
              cart t.loads (fun load ->
                  List.map
                    (fun wseed -> Workload_job { wname; wscheme; load; wseed })
                    t.seeds)))
  | Arena ->
      cart t.schemes (fun ascheme ->
          cart t.scens (fun ascen ->
              List.map
                (fun aseed -> Arena_job { ascheme; ascen; aseed })
                t.seeds))

(* ------------------------------------------------------------------ *)
(* Serialization: one line, exact round-trip (Fuzz_spec conventions). *)

let join = String.concat ","
let ints xs = join (List.map string_of_int xs)

let to_string t =
  Printf.sprintf
    "cp1;name=%s;target=%s;fab=%s;tr=%s;schemes=%s;colls=%s;mb=%s;dcqcn=%s;fanins=%s;studies=%s;wl=%s;loads=%s;scens=%s;profile=%s;seeds=%s"
    t.name
    (target_to_string t.target)
    (join (List.map fabric_to_string t.fabrics))
    (join t.transports)
    (String.concat "+" t.schemes)
    (join t.colls) (ints t.mbs)
    (join (List.map (fun (ti, td) -> Printf.sprintf "%d:%d" ti td) t.dcqcn))
    (ints t.fanins) (join t.studies) (join t.wnames) (ints t.loads)
    (join t.scens) t.profile (ints t.seeds)

let dcqcn_of =
  Spec_line.list (fun pair ->
      match String.split_on_char ':' pair with
      | [ a; b ] ->
          let* ti = Spec_line.int_of a ~what:"dcqcn" in
          let* td = Spec_line.int_of b ~what:"dcqcn" in
          Ok (ti, td)
      | _ -> Error (Printf.sprintf "bad dcqcn point %S" pair))

let of_string s =
  let open Spec_line in
  let names = list Result.ok and int_list what = list (int_of ~what) in
  let* f = parse ~tag:"cp1" s in
  let* name = str f "name" in
  let* target = get f "target" target_of_string in
  (* Every axis is optional and defaults to empty (profile to quick):
     [validate] rejects an empty axis that the target needs. *)
  let* fabrics = get ~default:"" f "fab" (list fabric_of_string) in
  let* transports = get ~default:"" f "tr" names in
  let* schemes = get ~default:"" f "schemes" (list ~sep:'+' Result.ok) in
  let* colls = get ~default:"" f "colls" names in
  let* mbs = get ~default:"" f "mb" (int_list "mb") in
  let* dcqcn = get ~default:"" f "dcqcn" dcqcn_of in
  let* fanins = get ~default:"" f "fanins" (int_list "fanins") in
  let* studies = get ~default:"" f "studies" names in
  let* wnames = get ~default:"" f "wl" names in
  let* loads = get ~default:"" f "loads" (int_list "loads") in
  let* scens = get ~default:"" f "scens" names in
  let* profile =
    get ~default:"quick" f "profile" (function
      | ("quick" | "soak") as p -> Ok p
      | p -> Error (Printf.sprintf "bad profile %S" p))
  in
  let* seeds = get f "seeds" (int_list "seeds") in
  let* () = close f in
  Ok
    {
      name;
      target;
      fabrics;
      transports;
      schemes;
      colls;
      mbs;
      dcqcn;
      fanins;
      studies;
      wnames;
      loads;
      scens;
      profile;
      seeds;
    }

(* ------------------------------------------------------------------ *)
(* Job serialization + content hash. *)

let job_to_string = function
  | Fig1_job { transport; mb; seed } ->
      Printf.sprintf "cj1;fig1;tr=%s;mb=%d;seed=%d" transport mb seed
  | Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed } ->
      Printf.sprintf "cj1;fig5;fab=%s;scheme=%s;coll=%s;mb=%d;ti=%d;td=%d;seed=%d"
        (fabric_to_string fabric) scheme coll mb ti_us td_us seed
  | Incast_job { scheme; fanin; mb; seed } ->
      Printf.sprintf "cj1;incast;scheme=%s;fanin=%d;mb=%d;seed=%d" scheme fanin
        mb seed
  | Ablation_job { study; seed } ->
      Printf.sprintf "cj1;ablation;study=%s;seed=%d" study seed
  | Fuzz_job { soak; seed } ->
      Printf.sprintf "cj1;fuzz;profile=%s;seed=%d"
        (if soak then "soak" else "quick")
        seed
  | Workload_job { wname; wscheme; load; wseed } ->
      Printf.sprintf "cj1;workload;wl=%s;scheme=%s;load=%d;seed=%d" wname
        wscheme load wseed
  | Arena_job { ascheme; ascen; aseed } ->
      Printf.sprintf "cj1;arena;scheme=%s;scen=%s;seed=%d" ascheme ascen aseed

let job_of_string s =
  let open Spec_line in
  let* kind, f = parse_kind ~tag:"cj1" s in
  let* job =
    match kind with
    | "fig1" ->
        let* transport = str f "tr" in
        let* mb = int f "mb" in
        let* seed = int f "seed" in
        Ok (Fig1_job { transport; mb; seed })
    | "fig5" ->
        let* fabric = get f "fab" fabric_of_string in
        let* scheme = str f "scheme" in
        let* coll = str f "coll" in
        let* mb = int f "mb" in
        let* ti_us = int f "ti" in
        let* td_us = int f "td" in
        let* seed = int f "seed" in
        Ok (Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed })
    | "incast" ->
        let* scheme = str f "scheme" in
        let* fanin = int f "fanin" in
        let* mb = int f "mb" in
        let* seed = int f "seed" in
        Ok (Incast_job { scheme; fanin; mb; seed })
    | "ablation" ->
        let* study = str f "study" in
        let* seed = int f "seed" in
        Ok (Ablation_job { study; seed })
    | "fuzz" ->
        let* soak =
          get f "profile" (function
            | "quick" -> Ok false
            | "soak" -> Ok true
            | p -> Error (Printf.sprintf "bad profile %S" p))
        in
        let* seed = int f "seed" in
        Ok (Fuzz_job { soak; seed })
    | "workload" ->
        let* wname = str f "wl" in
        let* wscheme = str f "scheme" in
        let* load = int f "load" in
        let* wseed = int f "seed" in
        Ok (Workload_job { wname; wscheme; load; wseed })
    | "arena" ->
        let* ascheme = str f "scheme" in
        let* ascen = str f "scen" in
        let* aseed = int f "seed" in
        Ok (Arena_job { ascheme; ascen; aseed })
    | k -> Error (Printf.sprintf "unknown job kind %S" k)
  in
  let* () = close f in
  Ok job

(* FNV-1a 64 over the canonical job string.  OCaml's native int is 63
   bits, so the arithmetic runs on Int64. *)
let hash_string s =
  let offset = 0xcbf29ce484222325L and prime = 0x100000001b3L in
  let h = ref offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let job_hash j = hash_string (job_to_string j)

(* ------------------------------------------------------------------ *)
(* Validation. *)

let transport_of_string = function
  | "sr" -> Ok `Sr
  | "gbn" -> Ok `Gbn
  | "ideal" -> Ok `Ideal
  | s -> Error (Printf.sprintf "unknown transport %S" s)

let studies_known =
  [
    "compensation";
    "queue-factor";
    "queue-factor-jitter";
    "transports";
    "filtering";
    "memory";
  ]

let study_of_string s =
  if List.mem s studies_known then Ok s
  else Error (Printf.sprintf "unknown study %S" s)

let wname_of_string s =
  match Workload_spec.preset s with
  | Some _ -> Ok s
  | None -> Error (Printf.sprintf "unknown workload %S" s)

(* The per-name checks behind both [validate_job] and [validate]. *)
let check what valid name =
  match valid name with
  | Ok _ -> Ok ()
  | Error e -> Error (Printf.sprintf "%s: %s" what e)

let scheme_ok = check "scheme" Network.scheme_of_string

let at_least = Spec_line.at_least

(* A Fig. 5 group has one rank per leaf, and a collective needs two. *)
let fabric_ok = function
  | Eval8 | Paper -> Ok ()
  | Ls_fab { leaves; spines; hosts; gbps } ->
      let* () = at_least "fabric leaves" 2 leaves in
      let* () = at_least "fabric spines" 1 spines in
      let* () = at_least "fabric hosts" 1 hosts in
      at_least "fabric gbps" 1 gbps

let validate_job = function
  | Fig1_job { transport; mb; _ } ->
      let* () = check "transport" transport_of_string transport in
      at_least "mb" 1 mb
  | Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; _ } ->
      let* () = fabric_ok fabric in
      let* () = scheme_ok scheme in
      let* () = check "coll" Schedule.collective_of_string coll in
      let* () = at_least "ti" 1 ti_us in
      let* () = at_least "td" 1 td_us in
      at_least "mb" 1 mb
  | Incast_job { scheme; fanin; mb; _ } ->
      let* () = scheme_ok scheme in
      let* () = at_least "fanin" 1 fanin in
      at_least "mb" 1 mb
  | Ablation_job { study; _ } -> check "study" study_of_string study
  | Fuzz_job _ -> Ok ()
  | Workload_job { wname; wscheme; load; _ } ->
      let* () = check "workload" wname_of_string wname in
      let* () = scheme_ok wscheme in
      if load > 0 && load <= 200 then Ok ()
      else Error (Printf.sprintf "load %d%% out of (0, 200]" load)
  | Arena_job { ascheme; ascen; aseed } ->
      let* () = scheme_ok ascheme in
      check "scen" (fun scen -> Arena_scen.spec ~scen ~seed:aseed) ascen

let validate t =
  let* () =
    if t.name <> ""
       && String.for_all
            (function
              | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
            t.name
    then Ok ()
    else Error (Printf.sprintf "bad campaign name %S" t.name)
  in
  let axes =
    match t.target with
    | Fig1 -> [ ("transports", t.transports <> []); ("mb", t.mbs <> []) ]
    | Fig5 ->
        [
          ("fabrics", t.fabrics <> []);
          ("schemes", t.schemes <> []);
          ("colls", t.colls <> []);
          ("mb", t.mbs <> []);
          ("dcqcn", t.dcqcn <> []);
        ]
    | Incast ->
        [
          ("schemes", t.schemes <> []);
          ("fanins", t.fanins <> []);
          ("mb", t.mbs <> []);
        ]
    | Ablation -> [ ("studies", t.studies <> []) ]
    | Fuzz_sweep -> []
    | Workload ->
        [
          ("wl", t.wnames <> []);
          ("schemes", t.schemes <> []);
          ("loads", t.loads <> []);
        ]
    | Arena -> [ ("schemes", t.schemes <> []); ("scens", t.scens <> []) ]
  in
  let axes = ("seeds", t.seeds <> []) :: axes in
  match List.find_opt (fun (_, full) -> not full) axes with
  | Some (what, _) -> Error (Printf.sprintf "%s axis is empty" what)
  | None -> Result.map ignore (Spec_line.map_result validate_job (jobs_of t))

(* ------------------------------------------------------------------ *)
(* Presets. *)

let empty name target =
  {
    name;
    target;
    fabrics = [];
    transports = [];
    schemes = [];
    colls = [];
    mbs = [];
    dcqcn = [];
    fanins = [];
    studies = [];
    wnames = [];
    loads = [];
    scens = [];
    profile = "quick";
    seeds = [];
  }

(* The Fig. 5 axes: the schemes of Fig. 5a/5b and the paper's DCQCN
   (TI, TD) sweep in microseconds, from the recommended (900, 4) to the
   aggressive (10, 200). *)
let fig5_schemes = [ "ecmp"; "adaptive"; "themis" ]
let full_dcqcn = [ (900, 4); (300, 4); (10, 4); (10, 50); (10, 200) ]

(* Seeds match the entry points' defaults (Experiment.default_eval 11,
   default_motivation 7, default_incast 3, Ablation 5), so a preset job
   runs the same simulation as a direct call to that entry point with
   its default seed. *)
let presets =
  [
    ( "quick",
      {
        (empty "quick" Fig5) with
        fabrics = [ Eval8 ];
        schemes = fig5_schemes;
        colls = [ "allreduce" ];
        mbs = [ 1 ];
        dcqcn = [ (900, 4); (10, 50) ];
        seeds = [ 11 ];
      } );
    ( "fig5a",
      {
        (empty "fig5a" Fig5) with
        fabrics = [ Eval8 ];
        schemes = fig5_schemes;
        colls = [ "allreduce" ];
        mbs = [ 4 ];
        dcqcn = full_dcqcn;
        seeds = [ 11 ];
      } );
    ( "fig5b",
      {
        (empty "fig5b" Fig5) with
        fabrics = [ Eval8 ];
        schemes = fig5_schemes;
        colls = [ "alltoall" ];
        mbs = [ 16 ];
        dcqcn = full_dcqcn;
        seeds = [ 11 ];
      } );
    ( "fig1",
      {
        (empty "fig1" Fig1) with
        transports = [ "sr"; "gbn"; "ideal" ];
        mbs = [ 10 ];
        seeds = [ 7 ];
      } );
    ( "incast",
      {
        (empty "incast" Incast) with
        schemes = [ "ecmp"; "adaptive"; "random-spray"; "themis" ];
        fanins = [ 8 ];
        mbs = [ 1 ];
        seeds = [ 3 ];
      } );
    ( "ablation",
      { (empty "ablation" Ablation) with studies = studies_known; seeds = [ 5 ] }
    );
    ( "fuzz",
      { (empty "fuzz" Fuzz_sweep) with seeds = List.init 25 (fun i -> i + 1) }
    );
    (* Workload scenarios: seeds match Workload_spec's presets (21) so
       CLI-emitted and campaign results share store keys. *)
    ( "mix",
      {
        (empty "mix" Workload) with
        wnames = [ "mix" ];
        schemes = [ "ecmp"; "themis" ];
        loads = [ 30 ];
        seeds = [ 21 ];
      } );
    ( "load-sweep",
      {
        (empty "load-sweep" Workload) with
        wnames = [ "sweep" ];
        schemes = [ "themis" ];
        loads = [ 20; 50; 80 ];
        seeds = [ 21 ];
      } );
    ( "failures",
      {
        (empty "failures" Workload) with
        wnames = [ "failures" ];
        schemes = [ "ecmp"; "themis" ];
        loads = [ 40 ];
        seeds = [ 21 ];
      } );
    (* The LB-scheme arena: every scheme the fuzz runner knows, across
       every adversarial path scenario.  Scheme names here are fuzz
       scheme names ("ar", "spray"), not Network names. *)
    ( "arena",
      {
        (empty "arena" Arena) with
        schemes =
          [
            "ecmp"; "spray"; "ar"; "themis"; "reps"; "prime"; "sprinklers";
            "spritz";
          ];
        scens = Arena_scen.known;
        seeds = [ 31 ];
      } );
    ( "arena-smoke",
      {
        (empty "arena-smoke" Arena) with
        schemes = [ "themis"; "reps"; "sprinklers" ];
        scens = [ "sym"; "cspine" ];
        seeds = [ 31 ];
      } );
  ]

let preset name = List.assoc_opt name presets
let preset_names = List.map fst presets
let pp ppf t = Format.pp_print_string ppf (to_string t)
