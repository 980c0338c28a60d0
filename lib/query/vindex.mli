(** Value index: secondary (attribute, value) → rank-set index.

    Atomic equality and presence selections — in particular the ubiquitous
    [(objectClass=c)] selections produced by the Figure-4 translation —
    answer from a persistent map instead of a full entry scan.  {!Eval}
    uses the lookups for [Eq] and [Present] leaves and falls back to
    scanning for other assertion shapes; {!Plan} additionally uses the
    lazy per-attribute structures below to index [Ge]/[Le]/[Substr].
    Built in O(|val(D)|); the range and trigram indexes are built on
    first use per attribute (thread-safely), so paths that never issue an
    ordering or substring assertion never pay for them.

    Tables are keyed by interned integers ({!Intern}) and stored in
    persistent Patricia tries, so a version step shares all untouched
    postings structurally with its parent — stepping to the next version
    costs O(|Δ| · log) rather than O(|val(D)|) table copies.  Lookup-side
    keying never grows the intern pools: an assertion value that was
    never stored resolves to "no key" and the empty set.

    Every [card_*] function is an upper bound on the cardinality of the
    corresponding lookup (multi-valued attributes can contribute one
    posting per value to the same rank) and costs O(log) — they feed
    {!Plan}'s selectivity estimates without materializing a bitset. *)

open Bounds_model

type t

(** [create ?pool ix] — with a [pool], per-chunk hash tables are built
    over disjoint rank ranges and merged in chunk order, yielding tables
    identical to the sequential build. *)
val create : ?pool:Bounds_par.Pool.t -> Index.t -> t
val index : t -> Index.t

(** Ranks of entries holding the pair [(a, v)]; [v] is the raw assertion
    value, compared against the string rendering of stored values,
    case-insensitively (same semantics as [Filter.Eq]). *)
val lookup_eq : t -> Attr.t -> string -> Bitset.t

(** Ranks of entries with at least one value for [a]. *)
val lookup_present : t -> Attr.t -> Bitset.t

(** Ranks satisfying [Ge (a, v)] ([ge:true]) or [Le (a, v)] ([ge:false])
    — exactly [Filter.matches]'s semantics, including its split
    comparison relation (numeric iff both sides parse as integers):
    binary searches over per-attribute sorted-value arrays instead of a
    full entry scan. *)
val lookup_range : t -> ge:bool -> Attr.t -> string -> Bitset.t

(** A {e superset} of the ranks matching [Substr (a, sub)], obtained by
    intersecting trigram postings of the pattern's fragments; callers
    must re-verify candidates against the actual filter.  Falls back to
    presence when no fragment is at least three characters long. *)
val substr_candidates : t -> Attr.t -> Filter.substring -> Bitset.t

val card_eq : t -> Attr.t -> string -> int
val card_present : t -> Attr.t -> int
val card_range : t -> ge:bool -> Attr.t -> string -> int
val card_substr : t -> Attr.t -> Filter.substring -> int

(** {2 Incremental maintenance}

    Postings are entry ids internally, so an update invalidates only the
    keys it touches — not, as a rank-based table would, every posting
    behind the lowest shifted rank.  At snapshot-build time ({!create})
    every posting set is frozen into one sorted id array — the compact,
    cache-friendly representation the planner's bitset fills and
    cardinality probes sweep.  A version step edits only the keys Δ
    touches: a small array is re-spliced in place and stays frozen; a
    large (dense) one takes the edit into a bounded overlay of pending
    adds and deletes, folded back into one sorted array once enough
    edits pile up.  A published version may therefore hold both frozen
    and patched postings; reads stay within a constant factor of array
    speed either way. *)

(** [apply ~index ops t] — the value index for the post-transaction
    version.  Ops refer to ids of [t] (or ids inserted earlier in [ops]
    — same-transaction insert-then-delete is handled).  [index] must be
    the matching evaluation index (e.g. [Index.apply ops (Vindex.index
    t)]).  O(|Δ| · log) per touched key; everything untouched — postings
    and the lazy per-attribute structures of untouched attributes — is
    shared with [t]. *)
val apply : index:Index.t -> Update.op list -> t -> t
