open Bounds_model

(** Hierarchical selection queries (Jagadish et al., SIGMOD'99).

    A query denotes a set of directory entries.  Besides atomic selections
    (filters) and boolean combinators, the language has the hierarchical
    operator χ: [Chi (axis, q1, q2)] selects the entries in [q1] that have
    at least one [axis]-related entry in [q2].  [Minus] is the σ−
    difference operator the paper's Figure 4 uses to express "entries in
    [q1] {e not} covered by [q2]". *)

type axis = Child | Parent | Descendant | Ancestor

type t =
  | Select of Filter.t
  | Minus of t * t  (** σ−(q1, q2) = q1 \ q2 *)
  | Union of t * t
  | Inter of t * t
  | Chi of axis * t * t

(** Number of operators + atomic filter nodes: the [|Q|] of the
    O(|Q|·|D|) evaluation bound. *)
val size : t -> int

val axis_to_string : axis -> string
val axis_of_string : string -> (axis, string) result

(** S-expression rendering in the paper's style, e.g.
    [(minus (select "(objectClass=orgGroup)")
            (chi d (select "(objectClass=orgGroup)")
                   (select "(objectClass=person)")))].
    Parseable back by {!Query_parser}. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Convenience constructors. *)
val select_class : Oclass.t -> t

(** All subquery nodes of [q], including [q] itself, in preorder.
    {!Plan.prewarm} caches them in reverse, children before parents. *)
val subqueries : t -> t list
