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

let int_of s ~what =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer %S in %s" s what)

let fabric_of_string s =
  match String.split_on_char ':' s with
  | [ "eval8" ] -> Ok Eval8
  | [ "paper" ] -> Ok Paper
  | [ "ls"; a; b; c; d ] ->
      let* leaves = int_of a ~what:"fabric" in
      let* spines = int_of b ~what:"fabric" in
      let* hosts = int_of c ~what:"fabric" in
      let* gbps = int_of d ~what:"fabric" in
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

let split_nonempty sep s =
  if String.trim s = "" then [] else String.split_on_char sep s

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_result f xs in
      Ok (y :: ys)

let ints_of s ~what = map_result (int_of ~what) (split_nonempty ',' s)

let dcqcn_of s =
  map_result
    (fun pair ->
      match String.split_on_char ':' pair with
      | [ a; b ] ->
          let* ti = int_of a ~what:"dcqcn" in
          let* td = int_of b ~what:"dcqcn" in
          Ok (ti, td)
      | _ -> Error (Printf.sprintf "bad dcqcn point %S" pair))
    (split_nonempty ',' s)

let of_string s =
  let s = String.trim s in
  match split_nonempty ';' s with
  | "cp1" :: fields -> (
      let kv =
        List.filter_map
          (fun f ->
            match String.index_opt f '=' with
            | None -> None
            | Some i ->
                Some
                  ( String.sub f 0 i,
                    String.sub f (i + 1) (String.length f - i - 1) ))
          fields
      in
      let find k =
        match List.assoc_opt k kv with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let* name = find "name" in
      let* target_s = find "target" in
      let* target = target_of_string target_s in
      let* fab_s = find "fab" in
      let* fabrics = map_result fabric_of_string (split_nonempty ',' fab_s) in
      let* tr_s = find "tr" in
      let transports = split_nonempty ',' tr_s in
      let* schemes_s = find "schemes" in
      let schemes = split_nonempty '+' schemes_s in
      let* colls_s = find "colls" in
      let colls = split_nonempty ',' colls_s in
      let* mb_s = find "mb" in
      let* mbs = ints_of mb_s ~what:"mb" in
      let* dcqcn_s = find "dcqcn" in
      let* dcqcn = dcqcn_of dcqcn_s in
      let* fanins_s = find "fanins" in
      let* fanins = ints_of fanins_s ~what:"fanins" in
      let* studies_s = find "studies" in
      let studies = split_nonempty ',' studies_s in
      (* wl/loads/scens post-date the cp1 grammar; absent fields default
         to empty so pre-workload / pre-arena spec lines keep parsing. *)
      let find_default k = Option.value (List.assoc_opt k kv) ~default:"" in
      let wnames = split_nonempty ',' (find_default "wl") in
      let* loads = ints_of (find_default "loads") ~what:"loads" in
      let scens = split_nonempty ',' (find_default "scens") in
      let* profile = find "profile" in
      let* seeds_s = find "seeds" in
      let* seeds = ints_of seeds_s ~what:"seeds" in
      match profile with
      | "quick" | "soak" ->
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
      | p -> Error (Printf.sprintf "bad profile %S" p))
  | _ -> Error "spec must start with \"cp1;\""

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
  let s = String.trim s in
  match split_nonempty ';' s with
  | "cj1" :: kind :: fields -> (
      let kv =
        List.filter_map
          (fun f ->
            match String.index_opt f '=' with
            | None -> None
            | Some i ->
                Some
                  ( String.sub f 0 i,
                    String.sub f (i + 1) (String.length f - i - 1) ))
          fields
      in
      let find k =
        match List.assoc_opt k kv with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing job field %S" k)
      in
      let find_int k =
        let* v = find k in
        int_of v ~what:k
      in
      match kind with
      | "fig1" ->
          let* transport = find "tr" in
          let* mb = find_int "mb" in
          let* seed = find_int "seed" in
          Ok (Fig1_job { transport; mb; seed })
      | "fig5" ->
          let* fab_s = find "fab" in
          let* fabric = fabric_of_string fab_s in
          let* scheme = find "scheme" in
          let* coll = find "coll" in
          let* mb = find_int "mb" in
          let* ti_us = find_int "ti" in
          let* td_us = find_int "td" in
          let* seed = find_int "seed" in
          Ok (Fig5_job { fabric; scheme; coll; mb; ti_us; td_us; seed })
      | "incast" ->
          let* scheme = find "scheme" in
          let* fanin = find_int "fanin" in
          let* mb = find_int "mb" in
          let* seed = find_int "seed" in
          Ok (Incast_job { scheme; fanin; mb; seed })
      | "ablation" ->
          let* study = find "study" in
          let* seed = find_int "seed" in
          Ok (Ablation_job { study; seed })
      | "fuzz" ->
          let* profile = find "profile" in
          let* seed = find_int "seed" in
          let* soak =
            match profile with
            | "quick" -> Ok false
            | "soak" -> Ok true
            | p -> Error (Printf.sprintf "bad profile %S" p)
          in
          Ok (Fuzz_job { soak; seed })
      | "workload" ->
          let* wname = find "wl" in
          let* wscheme = find "scheme" in
          let* load = find_int "load" in
          let* wseed = find_int "seed" in
          Ok (Workload_job { wname; wscheme; load; wseed })
      | "arena" ->
          let* ascheme = find "scheme" in
          let* ascen = find "scen" in
          let* aseed = find_int "seed" in
          Ok (Arena_job { ascheme; ascen; aseed })
      | k -> Error (Printf.sprintf "unknown job kind %S" k))
  | _ -> Error "job must start with \"cj1;\""

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

let check_all what names valid =
  let rec go = function
    | [] -> Ok ()
    | n :: rest -> (
        match valid n with
        | Ok _ -> go rest
        | Error e -> Error (Printf.sprintf "%s: %s" what e))
  in
  go names

let coll_of_string = function
  | "allreduce" -> Ok Experiment.Allreduce
  | "hd-allreduce" -> Ok Experiment.Hd_allreduce
  | "alltoall" -> Ok Experiment.Alltoall
  | "allgather" -> Ok Experiment.Allgather
  | "reduce-scatter" -> Ok Experiment.Reduce_scatter
  | s -> Error (Printf.sprintf "unknown collective %S" s)

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

let validate t =
  let nonempty what = function
    | [] -> Error (Printf.sprintf "%s axis is empty" what)
    | _ -> Ok ()
  in
  let* () =
    if t.name <> ""
       && String.for_all
            (function
              | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
            t.name
    then Ok ()
    else Error (Printf.sprintf "bad campaign name %S" t.name)
  in
  let* () = nonempty "seeds" t.seeds in
  match t.target with
  | Fig1 ->
      let* () = nonempty "transports" t.transports in
      let* () = nonempty "mb" t.mbs in
      check_all "transport" t.transports transport_of_string
  | Fig5 ->
      let* () = nonempty "fabrics" t.fabrics in
      let* () = nonempty "schemes" t.schemes in
      let* () = nonempty "colls" t.colls in
      let* () = nonempty "mb" t.mbs in
      let* () = nonempty "dcqcn" t.dcqcn in
      let* () = check_all "scheme" t.schemes Network.scheme_of_string in
      check_all "coll" t.colls coll_of_string
  | Incast ->
      let* () = nonempty "schemes" t.schemes in
      let* () = nonempty "fanins" t.fanins in
      let* () = nonempty "mb" t.mbs in
      check_all "scheme" t.schemes Network.scheme_of_string
  | Ablation ->
      let* () = nonempty "studies" t.studies in
      check_all "study" t.studies study_of_string
  | Fuzz_sweep -> Ok ()
  | Workload ->
      let* () = nonempty "wl" t.wnames in
      let* () = nonempty "schemes" t.schemes in
      let* () = nonempty "loads" t.loads in
      let* () = check_all "workload" t.wnames wname_of_string in
      let* () = check_all "scheme" t.schemes Network.scheme_of_string in
      check_all "load" t.loads (fun l ->
          if l > 0 && l <= 200 then Ok l
          else Error (Printf.sprintf "load %d%% out of (0, 200]" l))
  | Arena ->
      let* () = nonempty "schemes" t.schemes in
      let* () = nonempty "scens" t.scens in
      let* () = check_all "scheme" t.schemes Network.scheme_of_string in
      check_all "scen" t.scens (fun s -> Result.map (fun _ -> s)
          (Arena_scen.spec ~scen:s ~seed:0))

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

let fig5_schemes = [ "ecmp"; "adaptive"; "themis" ]
let full_dcqcn = [ (900, 4); (300, 4); (10, 4); (10, 50); (10, 200) ]

(* Seeds match the entry points' defaults (Experiment.default_eval 11,
   default_motivation 7, default_incast 3, Ablation 5) so bench-emitted
   results and campaign results share store keys. *)
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
