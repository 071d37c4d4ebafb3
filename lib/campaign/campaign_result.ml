type t = {
  job : string;
  hash : string;
  metrics : (string * float) list;
}

let make ~job ~metrics =
  let job = Campaign_spec.job_to_string job in
  { job; hash = Campaign_spec.hash_string job; metrics }

let metric t name = List.assoc_opt name t.metrics

let to_json_string t =
  Campaign_json.to_string
    (Campaign_json.Obj
       [
         ("v", Campaign_json.Num 1.);
         ("job", Campaign_json.Str t.job);
         ("hash", Campaign_json.Str t.hash);
         ( "metrics",
           Campaign_json.Obj
             (List.map (fun (k, v) -> (k, Campaign_json.Num v)) t.metrics) );
       ])

let ( let* ) = Result.bind

let of_json_string s =
  let* json = Campaign_json.of_string s in
  let field name conv =
    match Option.bind (Campaign_json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "result: missing/bad field %S" name)
  in
  let* v = field "v" Campaign_json.to_float in
  if v <> 1. then Error (Printf.sprintf "result: unknown version %g" v)
  else
    let* job = field "job" Campaign_json.to_str in
    let* hash = field "hash" Campaign_json.to_str in
    let* metrics =
      match Campaign_json.member "metrics" json with
      | Some (Campaign_json.Obj fields) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (k, Campaign_json.Num f) :: rest -> go ((k, f) :: acc) rest
            | (k, _) :: _ ->
                Error (Printf.sprintf "result: non-numeric metric %S" k)
          in
          go [] fields
      | _ -> Error "result: missing metrics object"
    in
    if hash <> Campaign_spec.hash_string job then
      Error (Printf.sprintf "result: hash %s does not match job %S" hash job)
    else Ok { job; hash; metrics }

let pp ppf t = Format.pp_print_string ppf (to_json_string t)
