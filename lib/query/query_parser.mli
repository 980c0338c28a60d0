(** Parser for the s-expression query syntax produced by
    {!Query.to_string}:
    {v
      query ::= '(' 'select' string ')'          string: a quoted filter
              | '(' 'minus' query query ')'
              | '(' 'union' query query ')'
              | '(' 'inter' query query ')'
              | '(' 'chi' axis query query ')'   axis: c | p | d | a
    v}
    An unquoted bare filter such as [(objectClass=person)] is also
    accepted at query position as shorthand for a [select]. *)

(** Errors carry the byte offset the parser stopped at, in the shared
    {!Bounds_model.Parse_error.t} shape. *)
val parse : string -> (Query.t, Bounds_model.Parse_error.t) result

val parse_exn : string -> Query.t
