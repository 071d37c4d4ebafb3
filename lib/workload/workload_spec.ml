type collective_job = {
  coll : string;
  ranks : int;
  coll_bytes : int;
  iters : int;
  coll_start_ns : int;
}

type failure =
  | Flap of {
      flap_link : int;
      first_down_ns : int;
      down_for_ns : int;
      period_ns : int;
      count : int;
    }
  | Spine_down of { spine : int; at_ns : int }
  | Drop_storm of { storm_start_ns : int; storm_dur_ns : int; storm_ppm : int }

type t = {
  wseed : int;
  shape : Fuzz_spec.shape;
  dist : Flow_size.dist;
  arrival : Arrival.process;
  load_pct : int;
  n_flows : int;
  colls : collective_job list;
  failures : failure list;
  deadline_ns : int;
}

let equal = ( = )

(* ------------------------------------------------------------------ *)
(* Serialization: one line, all-integer fields, exact round-trip (the
   fz1/cp1 conventions). *)

let coll_to_string c =
  Printf.sprintf "%s:%d:%d:%d@%d" c.coll c.ranks c.coll_bytes c.iters
    c.coll_start_ns

let failure_to_string = function
  | Flap { flap_link; first_down_ns; down_for_ns; period_ns; count } ->
      Printf.sprintf "flap:%d:%d:%d:%d:%d" flap_link first_down_ns down_for_ns
        period_ns count
  | Spine_down { spine; at_ns } -> Printf.sprintf "spine:%d:%d" spine at_ns
  | Drop_storm { storm_start_ns; storm_dur_ns; storm_ppm } ->
      Printf.sprintf "storm:%d:%d:%d" storm_start_ns storm_dur_ns storm_ppm

let to_string t =
  Printf.sprintf "wl1;seed=%d;shape=%s;dist=%s;arr=%s;load=%d;flows=%d;colls=%s;faults=%s;dl=%d"
    t.wseed
    (Fuzz_spec.shape_to_string t.shape)
    (Flow_size.to_string t.dist)
    (Arrival.process_to_string t.arrival)
    t.load_pct t.n_flows
    (String.concat "," (List.map coll_to_string t.colls))
    (String.concat "," (List.map failure_to_string t.failures))
    t.deadline_ns

let ( let* ) = Result.bind

let coll_of_string s =
  match String.split_on_char '@' s with
  | [ head; start_s ] -> (
      match String.split_on_char ':' head with
      | [ coll; ranks_s; bytes_s; iters_s ] ->
          let* ranks = Spec_line.int_of ranks_s ~what:"coll" in
          let* coll_bytes = Spec_line.int_of bytes_s ~what:"coll" in
          let* iters = Spec_line.int_of iters_s ~what:"coll" in
          let* coll_start_ns = Spec_line.int_of start_s ~what:"coll" in
          Ok { coll; ranks; coll_bytes; iters; coll_start_ns }
      | _ -> Error (Printf.sprintf "bad collective %S" s))
  | _ -> Error (Printf.sprintf "bad collective %S" s)

let failure_of_string s =
  match String.split_on_char ':' s with
  | [ "flap"; a; b; c; d; e ] ->
      let* flap_link = Spec_line.int_of a ~what:"flap" in
      let* first_down_ns = Spec_line.int_of b ~what:"flap" in
      let* down_for_ns = Spec_line.int_of c ~what:"flap" in
      let* period_ns = Spec_line.int_of d ~what:"flap" in
      let* count = Spec_line.int_of e ~what:"flap" in
      Ok (Flap { flap_link; first_down_ns; down_for_ns; period_ns; count })
  | [ "spine"; a; b ] ->
      let* spine = Spec_line.int_of a ~what:"spine fault" in
      let* at_ns = Spec_line.int_of b ~what:"spine fault" in
      Ok (Spine_down { spine; at_ns })
  | [ "storm"; a; b; c ] ->
      let* storm_start_ns = Spec_line.int_of a ~what:"storm" in
      let* storm_dur_ns = Spec_line.int_of b ~what:"storm" in
      let* storm_ppm = Spec_line.int_of c ~what:"storm" in
      Ok (Drop_storm { storm_start_ns; storm_dur_ns; storm_ppm })
  | _ -> Error (Printf.sprintf "bad failure %S" s)

(* ------------------------------------------------------------------ *)
(* Validation. *)

let validate t =
  let* () =
    match t.shape with
    | Fuzz_spec.Ls _ -> Ok ()
    | Fuzz_spec.Ft _ -> Error "workloads run on leaf-spine shapes only"
  in
  let* () = Fuzz_spec.validate_shape t.shape in
  let n_hosts = Fuzz_spec.n_hosts_of_shape t.shape in
  let* () = if n_hosts >= 2 then Ok () else Error "fabric needs >= 2 hosts" in
  let* () =
    if t.load_pct > 0 && t.load_pct <= 200 then Ok ()
    else Error (Printf.sprintf "load %d%% out of (0, 200]" t.load_pct)
  in
  let* () =
    if t.n_flows >= 0 then Ok () else Error "negative flow count"
  in
  let* () =
    if t.n_flows > 0 || t.colls <> [] then Ok ()
    else Error "spec offers no traffic at all"
  in
  let* () = if t.deadline_ns > 0 then Ok () else Error "bad deadline" in
  let* () =
    Spec_line.map_result
      (fun c ->
        let* coll = Schedule.collective_of_string c.coll in
        if c.ranks < 2 || c.ranks > n_hosts then
          Error (Printf.sprintf "collective ranks %d out of [2, %d]" c.ranks
                   n_hosts)
        else if coll = Schedule.Hd_allreduce && c.ranks land (c.ranks - 1) <> 0
        then
          Error "hd-allreduce needs a power-of-two rank count"
        else if c.coll_bytes <= 0 || c.iters <= 0 || c.coll_start_ns < 0 then
          Error (Printf.sprintf "bad collective %S" (coll_to_string c))
        else Ok ())
      t.colls
    |> Result.map ignore
  in
  match t.shape with
  | Fuzz_spec.Ft _ -> assert false
  | Fuzz_spec.Ls { n_leaves; n_spines; _ } ->
      let n_links = n_hosts + (n_leaves * n_spines) in
      Spec_line.map_result
        (fun f ->
          match f with
          | Flap { flap_link; down_for_ns; period_ns; count; _ } ->
              if flap_link < n_hosts || flap_link >= n_links then
                Error (Printf.sprintf "flap link %d not a fabric link" flap_link)
              else if count <= 0 || down_for_ns <= 0 then Error "bad flap"
              else if count > 1 && period_ns <= down_for_ns then
                Error "flap period must exceed its down time"
              else Ok ()
          | Spine_down { spine; at_ns } ->
              if spine < 0 || spine >= n_spines then
                Error (Printf.sprintf "spine %d not in fabric" spine)
              else if n_spines < 2 then
                Error "spine death would disconnect the fabric"
              else if at_ns < 0 then Error "bad spine death time"
              else Ok ()
          | Drop_storm { storm_start_ns; storm_dur_ns; storm_ppm } ->
              if storm_start_ns < 0 || storm_dur_ns <= 0 then Error "bad storm"
              else if storm_ppm <= 0 || storm_ppm >= 1_000_000 then
                Error (Printf.sprintf "storm ppm %d out of (0, 1e6)" storm_ppm)
              else Ok ())
        t.failures
      |> Result.map ignore

(* ------------------------------------------------------------------ *)
(* Presets: the named scenarios the campaign presets reference. *)

let small_fabric =
  Fuzz_spec.Ls
    {
      n_leaves = 2;
      n_spines = 2;
      hosts_per_leaf = 4;
      host_gbps = 25;
      fabric_gbps = 25;
      link_delay_ns = 500;
    }

let mix =
  {
    wseed = 21;
    shape = small_fabric;
    dist = Flow_size.Websearch;
    arrival = Arrival.Poisson;
    load_pct = 30;
    n_flows = 120;
    colls =
      [
        {
          coll = "allreduce";
          ranks = 4;
          coll_bytes = 262_144;
          iters = 2;
          coll_start_ns = 50_000;
        };
      ];
    failures = [];
    deadline_ns = 400_000_000;
  }

let sweep =
  {
    wseed = 21;
    shape = small_fabric;
    dist = Flow_size.Hadoop;
    arrival = Arrival.Poisson;
    load_pct = 50;
    n_flows = 400;
    colls = [];
    failures = [];
    deadline_ns = 400_000_000;
  }

let failures_preset =
  (* Host links are ids 0..7 on the small fabric; leaf0<->spine0 is 8. *)
  {
    wseed = 21;
    shape = small_fabric;
    dist = Flow_size.Fixed 65_536;
    arrival = Arrival.Onoff { on_us = 50; off_us = 150 };
    load_pct = 40;
    (* ~39 ms of arrivals at 40% load — long enough that the flaps
       (2/12 ms), the storm (10-15 ms) and the spine death (30 ms) all
       hit live traffic. *)
    n_flows = 1_500;
    colls = [];
    failures =
      [
        Flap
          {
            flap_link = 8;
            first_down_ns = 2_000_000;
            down_for_ns = 1_000_000;
            period_ns = 10_000_000;
            count = 2;
          };
        Drop_storm
          {
            storm_start_ns = 10_000_000;
            storm_dur_ns = 5_000_000;
            storm_ppm = 20_000;
          };
        Spine_down { spine = 1; at_ns = 30_000_000 };
      ];
    deadline_ns = 500_000_000;
  }

let presets =
  [ ("mix", mix); ("sweep", sweep); ("failures", failures_preset) ]

let preset name = List.assoc_opt name presets
let preset_names = List.map fst presets

(* ------------------------------------------------------------------ *)

let of_string s =
  let s = String.trim s in
  match String.split_on_char ':' s with
  | [ "preset"; name ] -> (
      match preset name with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "unknown workload preset %S" name))
  | _ ->
      let open Spec_line in
      let* f = parse ~tag:"wl1" s in
      let* wseed = int f "seed" in
      let* shape = get f "shape" Fuzz_spec.shape_of_string in
      let* dist = get f "dist" Flow_size.of_string in
      let* arrival = get f "arr" Arrival.process_of_string in
      let* load_pct = int f "load" in
      let* n_flows = int f "flows" in
      let* colls = get f "colls" (list coll_of_string) in
      let* failures = get f "faults" (list failure_of_string) in
      let* deadline_ns = int f "dl" in
      let* () = close f in
      let t =
        {
          wseed;
          shape;
          dist;
          arrival;
          load_pct;
          n_flows;
          colls;
          failures;
          deadline_ns;
        }
      in
      let* () = validate t in
      Ok t

let pp ppf t = Format.pp_print_string ppf (to_string t)
