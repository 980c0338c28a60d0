(** Cost-based physical plans for hierarchical selection queries (the §7
    "schema-aware query optimization" outlook item).

    {!plan} compiles a {!Query.t} against one {!Vindex} snapshot into an
    explicit physical plan; {!exec} runs it.  Compared with the {!Eval}
    interpreter:

    - [Eq]/[Present]/[Ge]/[Le] leaves answer from the value index ([Ge]/
      [Le] by binary search over per-attribute sorted-value arrays) and
      [Substr] prefilters through a trigram index, verifying only the
      surviving candidates — no leaf full-scans;
    - [And] evaluates its most selective conjunct (by index cardinality
      estimates) to a candidate set and applies the remaining conjuncts
      most selective first, each in the cheaper of two modes — intersect
      its materialized bitset, or verify it per surviving candidate —
      with an early exit once the candidate set drains;
    - [Not] inside a conjunction is pushed to the verify tail, so
      complements are taken late and narrow (a per-candidate test, not an
      O(|D|) complement set);
    - χ is evaluated frame first.  χ(ax, q1, q2) is q1 ∩ N_ax(q2), where
      N is the frame's neighbourhood ({!Eval.neighbourhood}).  When q1 is
      a selection, q2 is built, N is walked from its members, and q1 is
      tested on each rank of N (by {!Filter.matches}, or by membership
      when the memo already holds q1) — as long as |N| stays within q1's
      budget, the most candidates on which the intersect-vs-verify rule
      below still prefers testing to building.  The walk also visits
      each of q2's members, a step as dear as a rank fill, so the budget
      is taken from what is left of q1's materialization cost after
      those steps.  The walk stops once |N| passes the budget, and then
      q1 is built and {!Eval.chi} sweeps, so a dense frame costs at most
      the budget in extra steps.  A served χ then costs its frame's
      neighbourhood, not |D|;
    - [Minus]/[Inter] test a right selection on the left's members by
      the same rule when there are few enough of them;
    - [Minus]/[Inter] and a χ whose q1 is composite (or a selection
      whose estimate is 0, which is therefore empty) skip their right
      operand when the left one is already empty; a frame-first χ skips
      q1 when the frame is empty.

    Plans record estimated and (after {!exec}) actual cardinalities per
    node; {!explain_lines}/{!pp_explain} render them for [--explain].

    Results are bit-identical to {!Eval.eval} / {!Naive_eval} — the
    [plan-vs-naive] fuzz oracle holds the two extensionally equal.

    {2 Memoized evaluation}

    A {!memo} caches subquery results keyed on the {!Query.t} itself
    (structurally equal queries render alike), scoped to the
    [(index, vindex)] snapshot it was created from — the Figure-4
    obligation set then evaluates each shared subquery (class
    selections, χ frames) exactly once per check.  A memo evaluation
    answers a cached query before planning it; otherwise it runs the
    query's plan through the memo: one evaluator, and so one
    frame-first rule, serves {!exec} and the memo.

    Only {!prewarm} and {!memo_apply} write a memo.  {!prewarm} fills a
    memo before its snapshot is shared (the admission scan, a
    validation); {!memo_apply} builds the next version's memo.
    {!memo_eval} never writes, so reader threads that share a snapshot
    may call it concurrently.  Cached bitsets are shared: treat them as
    immutable. *)

type t

val plan : Vindex.t -> Query.t -> t

(** Execute, recording actual cardinalities on the plan's nodes. *)
val exec : t -> Bitset.t

val query : t -> Query.t

(** [prefers_verify t ~candidates] — the planner's intersect-vs-verify
    rule applied to a candidate set of the given size: [true] when
    testing [Filter.matches] on each candidate (one [verify_factor] of
    cost apiece) is cheaper than {!exec}uting the selection [t] (its
    estimated materialization cost).  The rule that places an [And]'s
    conjuncts, bounds a χ neighbourhood walk and picks the mode of
    [Minus]/[Inter]; {!Search} prices a scope with it.  [false] unless
    [t]'s root is a selection, since only a filter can be tested per
    entry. *)
val prefers_verify : t -> candidates:int -> bool

(** [plan] + [exec] in one step. *)
val eval : Vindex.t -> Query.t -> Bitset.t

val eval_ids : Vindex.t -> Query.t -> Bounds_model.Entry.id list

(** One line per plan node, indented, with [est=]/[actual=] columns;
    [actual=skipped] marks nodes an early exit never ran, and
    [actual=verified] an operand tested per candidate instead of built.
    A [chi], [inter] or [minus] line that ran says how it met that
    operand: [verify k] on k candidates, or [sweep] over the built
    sets. *)
val explain_lines : t -> string list

val pp_explain : Format.formatter -> t -> unit

(** {2 Memoization} *)

type memo

val memo_create : Vindex.t -> memo

(** Evaluate through the cache without writing it: a cached query, or
    cached subquery, is read; anything else is computed and discarded.
    Safe to call concurrently from several threads once no writer
    runs. *)
val memo_eval : memo -> Query.t -> Bitset.t

(** [prewarm m qs] evaluates and caches every subquery of [qs] that [m]
    does not hold yet, children before parents, so each is evaluated
    over the cached results of the ones inside it.  Every subquery, not
    only the shared ones: the pointwise ones are what {!memo_apply}
    carries to the next version.  Sequential use only, before the memo
    is shared. *)
val prewarm : memo -> Query.t list -> unit

(** Number of cached queries. *)
val memo_size : memo -> int

(** [memo_apply ~vindex ~splices ops m] — carry the cache across an
    update instead of discarding it: [vindex] is the post-transaction
    value index (whose {!Vindex.index} is the post-transaction
    evaluation index) and [splices] the rank-space edits the transaction
    performed on the old index, in application order — exactly
    {!Index.Builder.splices} of the builder that produced it.  Entries
    for {e pointwise} queries (no χ anywhere — e.g. the class selections
    shared across the Figure-4 obligations) migrate: surviving verdicts
    shift to their new ranks by word-level bitset splicing (O(#splices ·
    n/64) per cached set, no per-member id translation), and each entry
    inserted by [ops] is admitted by one direct membership test.
    χ-containing entries are dropped — an insertion perturbs χ
    membership of arbitrary relatives of the insertion point, so only a
    rebuild is sound for them.  The argument memo is not written. *)
val memo_apply :
  vindex:Vindex.t ->
  splices:Index.splice list ->
  Bounds_model.Update.op list ->
  memo ->
  memo

(** Cumulative [(migrated, dropped)] cache-entry counts across every
    {!memo_apply} in this memo's lineage. *)
val memo_migration_stats : memo -> int * int
