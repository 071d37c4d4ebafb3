type profile = Quick | Soak

type shape =
  | Ls of {
      n_leaves : int;
      n_spines : int;
      hosts_per_leaf : int;
      host_gbps : int;
      fabric_gbps : int;
      link_delay_ns : int;
    }
  | Ft of { k : int; gbps : int; link_delay_ns : int }

type transfer = { src : int; dst : int; bytes : int; start_ns : int }
type link_fault = { fault_link : int; down_ns : int; up_ns : int }

type t = {
  seed : int;
  shape : shape;
  gbn : bool;
  queue_factor_pct : int;
  per_port_kb : int;
  jitter_ns : int;
  drop_ppm : int;
  corrupt_ppm : int;
  dup_ppm : int;
  delay_ppm : int;
  delay_max_ns : int;
  shrink_pathset : bool;
  deadline_ns : int;
  schemes : string list;
  transfers : transfer list;
  link_faults : link_fault list;
  (* Adversarial path asymmetry: derate every leaf<->spine link of one
     spine to [gbps] ((spine_index, gbps); Ls shapes only).  Absent from
     pre-arena corpus lines, which parse as [None]. *)
  slow_spine : (int * int) option;
}

let all_schemes = [ "ecmp"; "spray"; "ar"; "themis" ]
let mtu = 1500

let packets_of_bytes _t bytes =
  if bytes <= 0 then 0 else (bytes + mtu - 1) / mtu

let n_hosts_of_shape = function
  | Ls { n_leaves; hosts_per_leaf; _ } -> n_leaves * hosts_per_leaf
  | Ft { k; _ } -> k * k * k / 4

let rack_of_shape shape host =
  match shape with
  | Ls { hosts_per_leaf; _ } -> host / hosts_per_leaf
  | Ft { k; _ } -> host / (k / 2)

(* Leaf-spine link-id layout (see Leaf_spine.build): host links come
   first, one per host, then the full leaf x spine mesh in leaf-major
   order. *)
let fabric_link_id shape ~leaf ~spine =
  match shape with
  | Ls { n_leaves; n_spines; hosts_per_leaf; _ } ->
      if leaf < 0 || leaf >= n_leaves || spine < 0 || spine >= n_spines then
        invalid_arg "Fuzz_spec.fabric_link_id";
      (n_leaves * hosts_per_leaf) + (leaf * n_spines) + spine
  | Ft _ -> invalid_arg "Fuzz_spec.fabric_link_id: fat tree"

(* ------------------------------------------------------------------ *)
(* Generation *)

let pick rng arr = arr.(Rng.int rng (Array.length arr))

(* Log-uniform message sizes: mixing single-packet and ~100-packet
   messages in one scenario is what shakes out PSN-window edge cases. *)
let gen_bytes rng ~hi_pow =
  let base = 1024 lsl Rng.int rng (hi_pow + 1) in
  base + Rng.int rng base

let gen_transfers rng shape ~profile =
  let n = n_hosts_of_shape shape in
  let rack = rack_of_shape shape in
  let hi_pow = match profile with Quick -> 6 | Soak -> 9 in
  let start () = Rng.int rng 100_000 in
  let other_host dst =
    let rec go tries =
      let h = Rng.int rng n in
      if h <> dst && (tries > 8 || rack h <> rack dst) then h else go (tries + 1)
    in
    go 0
  in
  match Rng.int rng 4 with
  | 0 ->
      (* Incast: several senders, one victim host. *)
      let dst = Rng.int rng n in
      let cap = match profile with Quick -> 6 | Soak -> 12 in
      let fanin = 2 + Rng.int rng (max 1 (min cap (n - 1) - 1)) in
      let bytes = gen_bytes rng ~hi_pow in
      List.init fanin (fun _ ->
          { src = other_host dst; dst; bytes; start_ns = start () })
  | 1 ->
      (* Ring over a host subset. *)
      let m = min n (match profile with Quick -> 4 | Soak -> 8) in
      let hosts = Array.init n (fun i -> i) in
      Rng.shuffle_in_place rng hosts;
      List.init m (fun i ->
          {
            src = hosts.(i);
            dst = hosts.((i + 1) mod m);
            bytes = gen_bytes rng ~hi_pow;
            start_ns = start ();
          })
  | 2 ->
      (* Permutation over a host subset. *)
      let m = min n (match profile with Quick -> 8 | Soak -> 16) in
      let hosts = Array.init n (fun i -> i) in
      Rng.shuffle_in_place rng hosts;
      let bytes = gen_bytes rng ~hi_pow in
      List.init m (fun i ->
          {
            src = hosts.(i);
            dst = hosts.((i + 1) mod m);
            bytes;
            start_ns = start ();
          })
  | _ ->
      (* Independent random pairs, mixed sizes. *)
      let pairs = 1 + Rng.int rng (match profile with Quick -> 6 | Soak -> 12) in
      List.init pairs (fun _ ->
          let dst = Rng.int rng n in
          { src = other_host dst; dst; bytes = gen_bytes rng ~hi_pow;
            start_ns = start () })

(* Link faults are drawn only on leaf<->spine links and only from a
   victim set of at most [n_spines - 1] spines, so every leaf keeps at
   least one live uplink and the completion oracle stays a theorem. *)
let gen_link_faults rng shape =
  match shape with
  | Ft _ -> []
  | Ls { n_spines; _ } when n_spines < 2 -> []
  | Ls { n_leaves; n_spines; _ } ->
      let n_f = match Rng.int rng 5 with 0 | 1 | 2 -> 0 | 3 -> 1 | _ -> 2 in
      let victims = Array.init n_spines (fun i -> i) in
      Rng.shuffle_in_place rng victims;
      let n_victims = min (n_spines - 1) 2 in
      let seen = Hashtbl.create 4 in
      let rec fresh_link tries =
        let leaf = Rng.int rng n_leaves in
        let spine = victims.(Rng.int rng n_victims) in
        let l = fabric_link_id shape ~leaf ~spine in
        if Hashtbl.mem seen l && tries < 8 then fresh_link (tries + 1)
        else (
          Hashtbl.replace seen l ();
          l)
      in
      List.init n_f (fun _ ->
          let fault_link = fresh_link 0 in
          let down_ns = 5_000 + Rng.int rng 295_000 in
          let up_ns =
            if Rng.int rng 10 < 3 then 0
            else down_ns + 20_000 + Rng.int rng 380_000
          in
          { fault_link; down_ns; up_ns })

let generate ?(profile = Quick) ~seed () =
  let rng = Rng.create ~seed:(seed lxor 0x600dcafe) in
  let shape =
    if Rng.int rng 5 = 0 then
      let k = match profile with Quick -> 4 | Soak -> pick rng [| 4; 4; 8 |] in
      Ft
        {
          k;
          gbps = pick rng [| 40; 100 |];
          link_delay_ns = 500 + Rng.int rng 1_500;
        }
    else
      let soak = profile = Soak in
      Ls
        {
          n_leaves = 2 + Rng.int rng (if soak then 5 else 3);
          n_spines = pick rng (if soak then [| 2; 3; 4; 8; 16 |]
                               else [| 1; 2; 3; 4; 8 |]);
          hosts_per_leaf = 2 + Rng.int rng (if soak then 7 else 3);
          host_gbps = pick rng [| 25; 40; 100 |];
          fabric_gbps = pick rng [| 25; 40; 100 |];
          link_delay_ns = 200 + Rng.int rng 1_800;
        }
  in
  let transfers = gen_transfers rng shape ~profile in
  let link_faults = gen_link_faults rng shape in
  {
    seed;
    shape;
    gbn = Rng.int rng 5 = 0;
    queue_factor_pct = pick rng [| 10; 25; 50; 100; 150; 150; 200 |];
    per_port_kb = pick rng [| 64; 256; 1024; 9216; 9216 |];
    jitter_ns =
      (match shape with
      | Ft _ -> 0
      | Ls _ -> if Rng.int rng 10 < 3 then 200 + Rng.int rng 1_800 else 0);
    drop_ppm = (if Rng.bool rng then 0 else 1 + Rng.int rng 5_000);
    corrupt_ppm = (if Rng.int rng 10 < 7 then 0 else 1 + Rng.int rng 1_000);
    dup_ppm = (if Rng.int rng 10 < 6 then 0 else 1 + Rng.int rng 3_000);
    delay_ppm = (if Rng.bool rng then 0 else 1 + Rng.int rng 10_000);
    delay_max_ns = 1_000 + Rng.int rng 19_000;
    shrink_pathset = Rng.int rng 4 = 0;
    deadline_ns =
      (match profile with Quick -> 2_000_000_000 | Soak -> 5_000_000_000);
    schemes = all_schemes;
    transfers;
    link_faults;
    (* Generation keeps the pre-arena distribution (and generator
       stability); the slow-spine scenarios are built explicitly by
       Arena_scen. *)
    slow_spine = None;
  }

(* ------------------------------------------------------------------ *)
(* Serialization: one line, all-integer fields, exact round-trip. *)

let shape_to_string = function
  | Ls { n_leaves; n_spines; hosts_per_leaf; host_gbps; fabric_gbps;
         link_delay_ns } ->
      Printf.sprintf "ls:%d:%d:%d:%d:%d:%d" n_leaves n_spines hosts_per_leaf
        host_gbps fabric_gbps link_delay_ns
  | Ft { k; gbps; link_delay_ns } -> Printf.sprintf "ft:%d:%d:%d" k gbps
                                       link_delay_ns

let to_string t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "fz1;seed=%d;shape=%s;tr=%s;qf=%d;ppcap=%d;jit=%d" t.seed
    (shape_to_string t.shape)
    (if t.gbn then "gbn" else "sr")
    t.queue_factor_pct t.per_port_kb t.jitter_ns;
  add ";drop=%d;corr=%d;dup=%d;dly=%d:%d;fmode=%s;dl=%d" t.drop_ppm
    t.corrupt_ppm t.dup_ppm t.delay_ppm t.delay_max_ns
    (if t.shrink_pathset then "shrink" else "ecmp")
    t.deadline_ns;
  add ";schemes=%s" (String.concat "+" t.schemes);
  add ";flows=%s"
    (String.concat ","
       (List.map
          (fun f -> Printf.sprintf "%d>%d:%d@%d" f.src f.dst f.bytes f.start_ns)
          t.transfers));
  add ";faults=%s"
    (String.concat ","
       (List.map
          (fun f -> Printf.sprintf "%d:%d:%d" f.fault_link f.down_ns f.up_ns)
          t.link_faults));
  add ";sspine=%s"
    (match t.slow_spine with
    | None -> ""
    | Some (spine, gbps) -> Printf.sprintf "%d:%d" spine gbps);
  Buffer.contents buf

let ( let* ) = Result.bind

let shape_of_string s =
  match String.split_on_char ':' s with
  | [ "ls"; a; b; c; d; e; f ] ->
      let* n_leaves = Spec_line.int_of a ~what:"shape" in
      let* n_spines = Spec_line.int_of b ~what:"shape" in
      let* hosts_per_leaf = Spec_line.int_of c ~what:"shape" in
      let* host_gbps = Spec_line.int_of d ~what:"shape" in
      let* fabric_gbps = Spec_line.int_of e ~what:"shape" in
      let* link_delay_ns = Spec_line.int_of f ~what:"shape" in
      Ok
        (Ls { n_leaves; n_spines; hosts_per_leaf; host_gbps; fabric_gbps;
              link_delay_ns })
  | [ "ft"; k; g; d ] ->
      let* k = Spec_line.int_of k ~what:"shape" in
      let* gbps = Spec_line.int_of g ~what:"shape" in
      let* link_delay_ns = Spec_line.int_of d ~what:"shape" in
      Ok (Ft { k; gbps; link_delay_ns })
  | _ -> Error (Printf.sprintf "bad shape %S" s)

let transfer_of_string s =
  match String.index_opt s '>' with
  | None -> Error (Printf.sprintf "bad flow %S" s)
  | Some i -> (
      let src_s = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ':' rest with
      | [ dst_s; tail ] -> (
          match String.split_on_char '@' tail with
          | [ bytes_s; start_s ] ->
              let* src = Spec_line.int_of src_s ~what:"flow" in
              let* dst = Spec_line.int_of dst_s ~what:"flow" in
              let* bytes = Spec_line.int_of bytes_s ~what:"flow" in
              let* start_ns = Spec_line.int_of start_s ~what:"flow" in
              Ok { src; dst; bytes; start_ns }
          | _ -> Error (Printf.sprintf "bad flow %S" s))
      | _ -> Error (Printf.sprintf "bad flow %S" s))

let fault_of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c ] ->
      let* fault_link = Spec_line.int_of a ~what:"fault" in
      let* down_ns = Spec_line.int_of b ~what:"fault" in
      let* up_ns = Spec_line.int_of c ~what:"fault" in
      Ok { fault_link; down_ns; up_ns }
  | _ -> Error (Printf.sprintf "bad fault %S" s)

(* A [:]-joined integer pair, as in [dly] and [sspine]. *)
let pair_of ~what s =
  match String.split_on_char ':' s with
  | [ a; b ] ->
      let* a = Spec_line.int_of a ~what in
      let* b = Spec_line.int_of b ~what in
      Ok (a, b)
  | _ -> Error (Printf.sprintf "bad %s %S" what s)

let of_string s =
  let s = String.trim s in
  match String.split_on_char ':' s with
  | "gen" :: seed :: rest when rest = [] || rest = [ "quick" ] || rest = [ "soak" ]
    ->
      let profile = if rest = [ "soak" ] then Soak else Quick in
      let* seed = Spec_line.int_of seed ~what:"gen seed" in
      Ok (generate ~profile ~seed ())
  | _ ->
      let open Spec_line in
      let* f = parse ~tag:"fz1" s in
      let* seed = int f "seed" in
      let* shape = get f "shape" shape_of_string in
      let* gbn =
        get f "tr" (function
          | "sr" -> Ok false
          | "gbn" -> Ok true
          | tr -> Error (Printf.sprintf "bad transport %S" tr))
      in
      let* queue_factor_pct = int f "qf" in
      let* per_port_kb = int f "ppcap" in
      let* jitter_ns = int f "jit" in
      let* drop_ppm = int f "drop" in
      let* corrupt_ppm = int f "corr" in
      let* dup_ppm = int f "dup" in
      let* delay_ppm, delay_max_ns = get f "dly" (pair_of ~what:"dly") in
      let* shrink_pathset =
        get f "fmode" (function
          | "ecmp" -> Ok false
          | "shrink" -> Ok true
          | fmode -> Error (Printf.sprintf "bad fmode %S" fmode))
      in
      let* deadline_ns = int f "dl" in
      let* schemes = get f "schemes" (list ~sep:'+' Result.ok) in
      let* transfers = get f "flows" (list transfer_of_string) in
      let* link_faults = get f "faults" (list fault_of_string) in
      (* sspine post-dates the fz1 grammar: absent (legacy corpus lines)
         or empty both mean no slow spine. *)
      let* slow_spine =
        get ~default:"" f "sspine" (function
          | "" -> Ok None
          | v -> Result.map Option.some (pair_of ~what:"sspine" v))
      in
      let* () = close f in
      if transfers = [] then Error "spec has no flows"
      else
        Ok
          {
            seed;
            shape;
            gbn;
            queue_factor_pct;
            per_port_kb;
            jitter_ns;
            drop_ppm;
            corrupt_ppm;
            dup_ppm;
            delay_ppm;
            delay_max_ns;
            shrink_pathset;
            deadline_ns;
            schemes;
            transfers;
            link_faults;
            slow_spine;
          }

let cost t =
  let packets =
    List.fold_left (fun acc f -> acc + packets_of_bytes t f.bytes) 0 t.transfers
  in
  let knob v = if v > 0 then 20 else 0 in
  packets
  + (5 * List.length t.transfers)
  + (100 * List.length t.link_faults)
  + knob t.drop_ppm + knob t.corrupt_ppm + knob t.dup_ppm + knob t.delay_ppm
  + knob t.jitter_ns
  + (if t.queue_factor_pct < 150 then 10 else 0)
  + (if t.per_port_kb < 9216 then 10 else 0)
  + List.fold_left (fun a tr -> a + if tr.start_ns > 0 then 1 else 0) 0
      t.transfers

let pp ppf t = Format.pp_print_string ppf (to_string t)
