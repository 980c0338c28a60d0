(** Parser for the RFC-2254-style filter syntax.

    Grammar (whitespace between tokens is ignored):
    {v
      filter  ::= '(' body ')'
      body    ::= '&' filter*            conjunction
                | '|' filter*            disjunction
                | '!' filter             negation
                | attr '=' '*'           presence
                | attr '=' pattern       equality or substring (if '*' occurs)
                | attr '>=' value
                | attr '<=' value
    v}
    Backslash escapes [\(], [\)], [\*], [\\] inside values. *)

(** Errors carry the byte offset the parser stopped at, in the shared
    {!Bounds_model.Parse_error.t} shape. *)
val parse : string -> (Filter.t, Bounds_model.Parse_error.t) result

(** [parse_exn] raises [Failure] with the rendered error message. *)
val parse_exn : string -> Filter.t
