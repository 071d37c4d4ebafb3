type t = { store_dir : string }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir =
  mkdir_p dir;
  { store_dir = dir }

let path t hash = Filename.concat t.store_dir (hash ^ ".json")

let read_file file =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Some s

let raw_bytes t hash = read_file (path t hash)

let load t hash =
  let file = path t hash in
  match read_file file with
  | None -> None
  | Some bytes -> (
      match Campaign_result.of_json_string bytes with
      | Ok r when r.Campaign_result.hash = hash -> Some r
      | Ok _ | Error _ ->
          (* Corrupt or misfiled: clear the slot so it becomes an honest
             miss instead of failing on every campaign. *)
          (try Sys.remove file with Sys_error _ -> ());
          None)

let mem t hash = load t hash <> None

let save t r =
  let final = path t r.Campaign_result.hash in
  let tmp =
    Filename.concat t.store_dir
      (Printf.sprintf ".tmp.%s.%d" r.Campaign_result.hash (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  output_string oc (Campaign_result.to_json_string r);
  output_char oc '\n';
  close_out oc;
  Unix.rename tmp final

let list t =
  Sys.readdir t.store_dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" then
           Some (Filename.chop_suffix f ".json")
         else None)
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Baseline files: a JSON array with one result object per line. *)

let write_baseline ~file rs =
  mkdir_p (Filename.dirname file);
  let oc = open_out_bin file in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Campaign_result.to_json_string r))
    rs;
  output_string oc "\n]\n";
  close_out oc

let ( let* ) = Result.bind

let read_baseline ~file =
  match read_file file with
  | None -> Error (Printf.sprintf "cannot read baseline %S" file)
  | Some bytes ->
      let* json = Campaign_json.of_string bytes in
      (match json with
      | Campaign_json.List items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest ->
                let* r =
                  Campaign_result.of_json_string (Campaign_json.to_string item)
                in
                go (r :: acc) rest
          in
          go [] items
      | _ -> Error (Printf.sprintf "baseline %S is not a JSON array" file))
