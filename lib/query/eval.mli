(** Linear-time query evaluation.

    Each operator costs one O(|D|) pass over the rank arrays of the
    {!Index}, so a whole query evaluates in O(|Q|·|D|) — the bound
    established for hierarchical selection queries in [9] and relied on by
    the paper's Theorem 3.1.  That bound is {!eval}'s cost and the
    served evaluator's worst case: {!Plan} walks a χ frame's
    neighbourhood ({!neighbourhood}) instead of sweeping when the
    neighbourhood is small, and falls back to the sweeps below when it
    is not.  The χ sweeps exploit the preorder ranking:

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

(** [fold_siblings f ix ~lo ~hi acc] folds [f] over the ranks whose
    subtrees tile [[lo, hi]], in increasing order: the roots for the
    whole forest, a rank's children for its proper subtree.  The next
    sibling of rank [c] is [extent c + 1], so k siblings cost O(k). *)
val fold_siblings : (int -> 'a -> 'a) -> Index.t -> lo:int -> hi:int -> 'a -> 'a

(** [neighbourhood ix ax frame ~budget] — N_ax(frame), the ranks a χ
    over [ax] may select given the frame [frame], so that
    [chi ix ax q1 frame] is [q1 ∩ N]: the frame members' parents
    ([Child]), children ([Parent]), proper ancestors ([Descendant]) or
    proper descendants ([Ancestor]).  Walked from the frame's members in
    O(|N| + |D|/8) (parent pointers and extent jumps, no sweep); [None]
    as soon as more than [budget] ranks are reached. *)
val neighbourhood :
  Index.t -> Query.axis -> Bitset.t -> budget:int -> Bitset.t option
