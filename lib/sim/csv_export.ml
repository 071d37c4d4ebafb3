let quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let series_to_string ~header:(hx, hy) series =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (quote hx ^ "," ^ quote hy ^ "\n");
  List.iter
    (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%g,%g\n" x y))
    series;
  Buffer.contents buf

let write_string path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let write_series ~path ~header series =
  write_string path (series_to_string ~header series)

let table_to_string ~columns rows =
  let n = List.length columns in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map quote columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      if List.length row <> n then
        invalid_arg "Csv_export.table_to_string: row width mismatch";
      Buffer.add_string buf
        (String.concat "," (List.map (Printf.sprintf "%g") row));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let fig5_to_string ~sweep ~rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "scheme";
  List.iter
    (fun (ti, td) -> Buffer.add_string buf (Printf.sprintf ",TI%g_TD%g" ti td))
    sweep;
  Buffer.add_char buf '\n';
  List.iter
    (fun (scheme, values) ->
      Buffer.add_string buf (quote scheme);
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%g" v)) values;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
