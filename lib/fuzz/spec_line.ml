type field = { key : string; value : string; mutable read : bool }
type t = field list

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_result f xs in
      Ok (y :: ys)

let list ?(sep = ',') conv s =
  if String.trim s = "" then Ok []
  else map_result conv (String.split_on_char sep s)

let int_of ~what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer %S in %s" s what)

let at_least what lo n =
  if n >= lo then Ok ()
  else Error (Printf.sprintf "%s %d must be at least %d" what n lo)

let rec of_fields acc = function
  | [] -> Ok (List.rev acc)
  | f :: rest -> (
      match String.index_opt f '=' with
      | None -> Error (Printf.sprintf "field %S has no '='" f)
      | Some i ->
          let key = String.sub f 0 i in
          if List.exists (fun g -> g.key = key) acc then
            Error (Printf.sprintf "duplicate field %S" key)
          else
            let value = String.sub f (i + 1) (String.length f - i - 1) in
            of_fields ({ key; value; read = false } :: acc) rest)

let fields ~tag s =
  match String.split_on_char ';' (String.trim s) with
  | t :: rest when t = tag -> Ok rest
  | _ -> Error (Printf.sprintf "line must start with %S" (tag ^ ";"))

let parse ~tag s =
  let* fs = fields ~tag s in
  of_fields [] fs

let parse_kind ~tag s =
  let* fs = fields ~tag s in
  match fs with
  | kind :: rest ->
      let* t = of_fields [] rest in
      Ok (kind, t)
  | [] -> Error (Printf.sprintf "missing kind after %S" (tag ^ ";"))

let get ?default t key conv =
  match (List.find_opt (fun f -> f.key = key) t, default) with
  | Some f, _ ->
      f.read <- true;
      conv f.value
  | None, Some v -> conv v
  | None, None -> Error (Printf.sprintf "missing field %S" key)

let str t key = get t key Result.ok
let int t key = get t key (int_of ~what:key)

let close t =
  match List.find_opt (fun f -> not f.read) t with
  | None -> Ok ()
  | Some f -> Error (Printf.sprintf "unknown field %S" f.key)
