(** Evaluation index over one instance version.

    Built in O(|D|); assigns each entry a dense {e rank} equal to its
    position in a depth-first preorder of the forest.  This single
    numbering makes all four χ axes evaluable in one linear sweep (see
    {!Eval}): in preorder every node precedes its descendants, so a
    reverse sweep propagates information from descendants to ancestors and
    a forward sweep the other way.

    Versions are {e chunked copy-on-write}: the per-rank columns live in
    immutable chunks shared structurally between versions, and a
    transaction's version step copies only the chunks its splices touch
    plus an O(#chunks) spine.  Every version, fresh or patched, is read
    through its chunks: the accessors below allocate nothing and take no
    lock, and a sweep over every rank walks the chunks in order
    ({!iter_entries}, {!iter_depths}).  Ids map to ranks through one
    frozen table shared between versions plus the splices since it was
    built, folded into a fresh table on the writer's side once they
    pass a fixed bound. *)

open Bounds_model

type t

(** [create instance] — one preorder numbering pass (a rank {e is} a
    DFS position). *)
val create : Instance.t -> t

val instance : t -> Instance.t

(** Number of entries. *)
val n : t -> int

(** [rank ix id] — raises [Not_found] for ids absent from the instance
    (any int may be asked, negative ones included). *)
val rank : t -> Entry.id -> int

val rank_opt : t -> Entry.id -> int option
val id_of_rank : t -> int -> Entry.id
val entry_of_rank : t -> int -> Entry.t

(** Rank of the parent, or [-1] for roots. *)
val parent_rank : t -> int -> int

val depth_of_rank : t -> int -> int

(** Last rank of the subtree rooted at the given rank: in a preorder
    numbering the subtree occupies the contiguous interval
    [[r, extent_of_rank ix r]]. *)
val extent_of_rank : t -> int -> int

(** Ranks back to entry ids, in rank order.  Walks the set from the top
    rank down and conses: no intermediate array. *)
val ids_of : t -> Bitset.t -> Entry.id list

(** [iter_entries ix ~lo ~hi f] — [f r e] for every rank [r] of
    [[lo, hi]] (clamped to the version) in increasing order, chunk by
    chunk. *)
val iter_entries : t -> lo:int -> hi:int -> (int -> Entry.t -> unit) -> unit

(** [iter_depths ix f] — [f r depth] for every rank in increasing
    order; the parent of [r] is the last rank visited at depth
    [depth - 1], so a sweep can keep parents on a depth stack instead
    of looking each one up. *)
val iter_depths : t -> (int -> int -> unit) -> unit

(** {!iter_depths} from the last rank down. *)
val iter_depths_rev : t -> (int -> int -> unit) -> unit

(** Does nothing: every version is read through its chunks.  Kept so
    that callers timing where a version's first read begins still
    compile. *)
val materialize : t -> unit

(** {2 Chunk introspection} — for memory/sharing properties and bench
    reporting; says nothing about entry data. *)

val chunk_count : t -> int

(** [shared_chunks t1 t2] — how many of [t1]'s chunks are physically
    (pointer-)shared with [t2]. *)
val shared_chunks : t -> t -> int

(** {2 Incremental maintenance}

    A preorder subtree is a contiguous rank interval, so updates patch
    the encoding by interval splicing.  Each splice rebuilds only the
    chunks overlapping its boundaries, adjusts subtree sizes along the
    ancestor path, recomputes the O(#chunks) spine of rank offsets and
    records itself in the rank table's overlay —
    the old version (and every bitset computed against it) stays fully
    usable, now sharing all untouched chunks with the new one.  The full
    rebuild {!create} stays as the differential-fuzz twin
    ([index-apply-vs-rebuild] holds the two extensionally equal). *)

(** One structural edit in {e rolling} rank coordinates: at the moment
    it was recorded, ranks [[sp_at, sp_at + sp_removed)] were removed
    and [sp_inserted] ranks inserted at [sp_at].  Replaying a builder's
    splices in order against any rank-indexed structure of the base
    version (e.g. a cached bitset) re-aligns it with the sealed
    version. *)
type splice = { sp_at : int; sp_removed : int; sp_inserted : int }

(** Accumulates a transaction's splices against one base version and
    seals them into the next.  A builder is single-threaded; [seal] may
    be called at most once per builder (the sealed version owns the
    builder's chunks from then on). *)
module Builder : sig
  type index := t
  type t

  val of_version : index -> t

  (** The instance as patched so far (admission checks read it between
      steps). *)
  val instance : t -> Instance.t

  val n : t -> int

  (** Single insert-under-parent / leaf-delete, mirroring
      {!Update.apply_op}'s discipline; raises [Invalid_argument] on
      ill-formed operations. *)
  val apply_op : t -> Update.op -> unit

  (** [graft b ~parent ?delta_index delta] splices the forest [delta]
      under [parent] (or as new roots) as one block.  [delta_index] — an
      index of [delta], e.g. the one the incremental legality check
      already built — makes the splice a translation-free block copy;
      without it the delta is indexed first. *)
  val graft :
    t -> parent:Entry.id option -> ?delta_index:index -> Instance.t -> unit

  (** [prune b root] removes the whole subtree of [root]. *)
  val prune : t -> Entry.id -> unit

  (** [replace_entry b e] swaps the payload of the entry with [e]'s id;
      the shape (and so every rank) is untouched.  Records no splice. *)
  val replace_entry : t -> Entry.t -> unit

  (** Splices recorded so far, in application order. *)
  val splices : t -> splice list

  val seal : t -> index
end

(** {2 One-shot wrappers} — builder round-trips for single-edit
    callers. *)

(** [apply ops t] plays an accepted transaction's operations against one
    builder and seals. *)
val apply : Update.op list -> t -> t

val graft : parent:Entry.id option -> ?delta_index:t -> Instance.t -> t -> t
val prune : Entry.id -> t -> t
val replace_entry : Entry.t -> t -> t
