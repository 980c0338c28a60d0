(** Linear-time query evaluation.

    Each operator costs one O(|D|) pass over the rank arrays of the
    {!Index}, so a whole query evaluates in O(|Q|·|D|) — the bound
    established for hierarchical selection queries in [9] and relied on by
    the paper's Theorem 3.1.  The χ sweeps exploit the preorder ranking:

    - χ child / parent use the parent-rank array directly;
    - χ descendant sweeps ranks in reverse (descendants precede their
      ancestors' completion), pushing "has a match below" up one edge at a
      time;
    - χ ancestor sweeps forward, pulling "has a match above" down.

    An optional {!Vindex} accelerates atomic equality/presence selections
    below the O(|D|) scan. *)

open Bounds_model

val eval : ?vindex:Vindex.t -> Index.t -> Query.t -> Bitset.t
val eval_ids : ?vindex:Vindex.t -> Index.t -> Query.t -> Entry.id list
val is_empty : ?vindex:Vindex.t -> Index.t -> Query.t -> bool

(** [eval_filter ix f] — the atomic-selection scan on its own. *)
val eval_filter : Index.t -> Filter.t -> Bitset.t

(** [chi ix ax q1 q2] — the χ sweep on already-evaluated operand
    sets; {!Plan} combines its leaf access paths with this. *)
val chi : Index.t -> Query.axis -> Bitset.t -> Bitset.t -> Bitset.t
