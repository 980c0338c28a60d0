(** Full legality testing (Definition 2.7, Theorem 3.1).

    Combines the per-entry content checks of Section 3.1 with the
    query-reduction structure checks of Section 3.2.  Total cost is
    O(|D| · (max|class(e)| + max|Aux(c)|·depth(H) + max|val(e)| +
    max Σ|a(c)| + |S|)) — linear in the instance for a fixed schema,
    which benchmark [legality_scaling] validates against the quadratic
    {!Naive_legality} baseline. *)

open Bounds_model
open Bounds_query

(** All violations: typing, content, structure — and, when [extensions]
    is [true] (default), the Section 6.1 single-valued and key checks.

    The structure obligations go through the shared-subquery memo of
    {!Structure_legality.check}; [memo] supplies a session's migrated
    cache to reuse instead of building a fresh one. *)
val check :
  ?extensions:bool ->
  ?index:Index.t ->
  ?vindex:Vindex.t ->
  ?memo:Plan.memo ->
  Schema.t ->
  Instance.t ->
  Violation.t list

val is_legal :
  ?extensions:bool ->
  ?index:Index.t ->
  ?vindex:Vindex.t ->
  ?memo:Plan.memo ->
  Schema.t ->
  Instance.t ->
  bool
