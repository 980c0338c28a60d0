(** Evaluation index over one instance version.

    Built in O(|D|); assigns each entry a dense {e rank} equal to its
    position in a depth-first preorder of the forest.  This single
    numbering makes all four χ axes evaluable in one linear array sweep
    (see {!Eval}): in preorder every node precedes its descendants, so a
    reverse sweep propagates information from descendants to ancestors and
    a forward sweep the other way.

    Versions are {e chunked copy-on-write}: the per-rank columns live in
    immutable chunks shared structurally between versions, the id->rank
    table is a persistent map, and a transaction's version step copies
    only the chunks its splices touch plus an O(#chunks) spine — not the
    O(n) array blits + [Hashtbl.copy] of the flat representation this
    replaced.  Rank sweeps lazily materialize a flat mirror per version
    ({!materialize}); the write path never does. *)

open Bounds_model

type t

(** [create instance] — one preorder numbering pass (a rank {e is} a
    DFS position).  The result keeps its flat mirror pre-materialized. *)
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

(** Ranks back to entry ids. *)
val ids_of : t -> Bitset.t -> Entry.id list

(** Force the flat per-rank mirror (idempotent, thread-safe): five
    per-rank arrays and an open-addressing id->rank table (power-of-two
    capacity at least 2n), built in O(n).  Call before an O(n) rank
    sweep or a posting-to-bitset fill: per-rank accessors then run at
    array speed, and {!rank}/{!rank_opt} cost a probe or two with no
    allocation.  Accessors fall back to the chunk tier (binary search +
    persistent map, fine for sparse access) when it is absent. *)
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
    ancestor path, and recomputes the O(#chunks) spine of rank offsets —
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
