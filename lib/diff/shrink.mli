(** Greedy counterexample minimization.

    [minimize ~still_fails case] repeatedly proposes strictly-smaller
    variants of [case] — dropping instance subtrees, entry pairs and
    classes, transaction ops, schema constraints, query/filter subterms,
    and text chunks — keeping any variant for which [still_fails] holds,
    until no proposal reproduces the failure (a local minimum) or the
    call's own budget of [max_tests] (default 10 000) [still_fails]
    evaluations runs out.

    Progress is measured lexicographically by {!Case.size} and then by
    total embedded string length, so every accepted step strictly
    decreases the measure and the loop terminates even without a budget. *)

val minimize :
  ?max_tests:int -> still_fails:(Case.t -> bool) -> Case.t -> Case.t
