(** The one-line codec behind every serialized spec and job: campaign
    specs ([cp1]), campaign jobs ([cj1]), fuzz specs ([fz1]) and
    workload specs ([wl1]).

    A line is a version tag, then [;]-separated [key=value] fields;
    [cj1] puts a bare job kind between the tag and the fields.  A value
    is an integer, a name, a list joined by [,] (by [+] for scheme
    lists), or a [:]-joined tuple that the owning module parses.

    Parsing is strict: a field without [=], a key given twice, and
    (at {!close}) a key no lookup read are all errors that name the
    field.  A format's parser is a flat run of lookups ending in
    {!close}; its printer stays a [Printf] line, so every serialized
    form, job hash and corpus line is fixed by the owning module. *)

type t
(** The fields of one line, each marked as it is looked up. *)

val parse : tag:string -> string -> (t, string) result
(** [parse ~tag line] splits [tag;k=v;...]; surrounding blanks are
    trimmed. *)

val parse_kind : tag:string -> string -> (string * t, string) result
(** [tag;kind;k=v;...]: the bare word after the tag, then the fields. *)

val get :
  ?default:string -> t -> string -> (string -> ('a, string) result) ->
  ('a, string) result
(** [get t key conv] converts the field's value.  Absent, it is
    ["missing field %S"], or [conv default] when [default] is given
    (an optional field, or one added to a format after its first lines
    were written). *)

val str : t -> string -> (string, string) result
(** A required field, as is. *)

val int : t -> string -> (int, string) result
(** A required integer field, named in the error. *)

val close : t -> (unit, string) result
(** Rejects the first field no lookup read: ["unknown field %S"]. *)

val int_of : what:string -> string -> (int, string) result
(** ["bad integer %S in %s"] unless the (trimmed) string is an int. *)

val at_least : string -> int -> int -> (unit, string) result
(** [at_least what lo n]: ["%s %d must be at least %d"] unless
    [n >= lo]. *)

val list :
  ?sep:char -> (string -> ('a, string) result) -> string ->
  ('a list, string) result
(** Split on [sep] (default [,]) and convert each element; the first
    error wins.  A blank string is the empty list. *)

val map_result :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
