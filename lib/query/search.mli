(** LDAP-style scoped search.

    The paper's introduction describes the retrieval model of directory
    applications: entries matching a boolean filter, "the retrieval
    typically scoped to some subtree of the hierarchy".  This module is
    that operation: a base entry, one of the three LDAP scopes, and a
    filter.

    Evaluation is scope-first.  The scope is a set of k candidates: in
    the preorder ranking of {!Index} a subtree is the contiguous
    interval [[rank(base), extent(base)]] (the whole forest without a
    base), and the base's children or the roots are found by extent
    jumps in O(k).  With a value index the filter is priced against k
    by the planner's own rule ({!Plan.prefers_verify}):
    - verifying is cheaper: each candidate is tested with
      {!Filter.matches}, O(k) tests;
    - otherwise the filter's plan runs once and only its members in
      the scope are visited: O(plan + |D|/64) for an interval (a word
      scan of the bitset), O(plan + k) for a sibling list.
    Without a value index every candidate is tested.  So a [(uid=…)]
    lookup over the whole forest costs its one-posting plan, not |D|
    membership tests, and a search under a small subtree costs the
    subtree, not the filter's |D|-sized posting. *)

open Bounds_model

type scope =
  | Base  (** the base entry alone *)
  | One_level  (** the base entry's children *)
  | Subtree  (** the base entry and all its descendants *)

val scope_to_string : scope -> string
val scope_of_string : string -> (scope, string) result

(** [search ix ~base scope filter] — entry ids in document (preorder)
    order.  [base = None] searches the whole forest ([Base] then means
    the roots, [One_level] the roots' children).  Raises [Not_found]
    if [base] names an absent entry. *)
val search :
  ?vindex:Vindex.t ->
  Index.t ->
  base:Entry.id option ->
  scope ->
  Filter.t ->
  Entry.id list

(** [count] without materializing the ids. *)
val count :
  ?vindex:Vindex.t ->
  Index.t ->
  base:Entry.id option ->
  scope ->
  Filter.t ->
  int
