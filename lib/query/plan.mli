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
    - [Minus]/[Inter]/[Chi] skip their right operand when the left one is
      already empty.

    Plans record estimated and (after {!exec}) actual cardinalities per
    node; {!explain_lines}/{!pp_explain} render them for [--explain].

    Results are bit-identical to {!Eval.eval} / {!Naive_eval} — the
    [plan-vs-naive] fuzz oracle holds the two extensionally equal.

    {2 Memoized evaluation}

    A {!memo} hash-conses subquery results on their canonical
    {!Query.to_string} rendering, scoped to the [(index, vindex)] snapshot
    it was created from — the Figure-4 obligation set then evaluates each
    shared subquery (class selections, χ frames) exactly once per check.
    {!memo_eval} caches and must run sequentially; after a {!prewarm},
    {!memo_eval_ro} never writes and may be called from several domains
    concurrently.  Cached bitsets are shared: treat them as immutable. *)

type t

val plan : Vindex.t -> Query.t -> t

(** Execute, recording actual cardinalities on the plan's nodes.  The
    optional [pool] parallelizes the χ child/parent sweeps exactly as in
    {!Eval}. *)
val exec : ?pool:Bounds_par.Pool.t -> t -> Bitset.t

val query : t -> Query.t

(** [plan] + [exec] in one step. *)
val eval : ?pool:Bounds_par.Pool.t -> Vindex.t -> Query.t -> Bitset.t

val eval_ids :
  ?pool:Bounds_par.Pool.t -> Vindex.t -> Query.t -> Bounds_model.Entry.id list

(** One line per plan node, indented, with [est=]/[actual=] columns;
    [actual=skipped] marks nodes an early exit never ran. *)
val explain_lines : t -> string list

val pp_explain : Format.formatter -> t -> unit

(** {2 Memoization} *)

type memo

val memo_create : Vindex.t -> memo

(** Evaluate through the cache, filling it.  Sequential use only. *)
val memo_eval : ?pool:Bounds_par.Pool.t -> memo -> Query.t -> Bitset.t

(** Evaluate through the cache without writing it: cache misses are
    recomputed on the fly and discarded.  Safe to call concurrently from
    several domains once the writers are done. *)
val memo_eval_ro : ?pool:Bounds_par.Pool.t -> memo -> Query.t -> Bitset.t

(** [prewarm m qs] evaluates-and-caches every subquery occurring at least
    twice across [qs] (by canonical rendering), so a subsequent parallel
    [memo_eval_ro] fan-out over [qs] hits the cache for all shared
    work. *)
val prewarm : ?pool:Bounds_par.Pool.t -> memo -> Query.t list -> unit

(** [(hits, misses, entries)] — hits/misses count {!memo_eval} lookups
    only. *)
val memo_stats : memo -> int * int * int

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
    rebuild is sound for them.  Hit/miss counters carry over. *)
val memo_apply :
  vindex:Vindex.t ->
  splices:Index.splice list ->
  Bounds_model.Update.op list ->
  memo ->
  memo

(** Cumulative [(migrated, dropped)] cache-entry counts across every
    {!memo_apply} in this memo's lineage. *)
val memo_migration_stats : memo -> int * int
