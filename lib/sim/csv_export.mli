(** CSV rendering of experiment outputs, for plotting the figures with
    external tools (gnuplot / matplotlib).

    Writers are deliberately dependency-free: columns are numeric or
    plain labels, quoted only when needed. *)

val series_to_string : header:string * string -> (float * float) list -> string
(** One [(x, y)] series with a two-column header row. *)

val write_series :
  path:string -> header:string * string -> (float * float) list -> unit

val table_to_string : columns:string list -> float list list -> string
(** Rows of numbers under named columns (row length must match). *)

val fig5_to_string :
  sweep:(float * float) list ->
  rows:(string * float list) list ->
  string
(** The Fig. 5 matrix: one row per scheme, one column per (TI, TD). *)
