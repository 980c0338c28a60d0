(** Structure-schema legality (Section 3.2).

    Legality is decided by evaluating the Figure-4 queries of every
    structure-schema element against the instance: required-relationship
    and forbidden-relationship queries must come back empty,
    required-class queries non-empty.  Each query evaluates in
    O(|Q|·|D|) via {!Bounds_query.Eval}, giving the overall
    O(|S|·|D|)-flavoured bound of Theorem 3.1. *)

open Bounds_model
open Bounds_query

(** [check schema inst] returns all structure violations, with witness
    entries extracted from the query results.  [index]/[vindex] may be
    supplied to reuse work across calls on the same instance version.
    Violations come in the obligation order of [Translate.all].

    The obligation queries evaluate through a {!Bounds_query.Plan} memo
    scoped to this snapshot: {!Bounds_query.Plan.prewarm} computes every
    subquery (class selections, χ frames, the obligations themselves)
    exactly once, before the obligations read the cache.  A vindex is
    built automatically if none is supplied.

    [memo], when given, is used instead of a fresh memo: a live session
    passes the cache it migrated across
    the last update with {!Bounds_query.Plan.memo_apply}, so only the
    entries migration dropped are re-evaluated by the prewarm.  The memo
    must be scoped to an (index, vindex) snapshot of [inst]. *)
val check :
  ?index:Index.t ->
  ?vindex:Vindex.t ->
  ?memo:Plan.memo ->
  Schema.t ->
  Instance.t ->
  Violation.t list

val is_legal :
  ?index:Index.t ->
  ?vindex:Vindex.t ->
  ?memo:Plan.memo ->
  Schema.t ->
  Instance.t ->
  bool
