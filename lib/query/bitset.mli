(** Dense bit sets over entry ranks.

    Query evaluation represents intermediate results as bit sets indexed by
    the dense rank an {!Index} assigns to each entry; all boolean
    combinators are then word-parallel.  The API is persistent (operations
    return fresh sets) — evaluation never aliases intermediate results. *)

type t

(** [create n] is the empty set over universe [0..n-1]. *)
val create : int -> t

(** Universe size. *)
val length : t -> int

(** [full n] is the set containing all of [0..n-1]. *)
val full : int -> t

val mem : t -> int -> bool

(** [add s i] / [remove s i] are persistent single-bit updates. *)
val add : t -> int -> t

val remove : t -> int -> t

(** In-place variants, used by the linear tree sweeps. *)
val set : t -> int -> unit

val unset : t -> int -> unit
val copy : t -> t

(** Set algebra; arguments must share a universe size
    (raises [Invalid_argument] otherwise). *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

(** [union_into ~into src] — [into := into ∪ src], in place, no
    allocation.  The disjunction loops of the indexed evaluator and the
    planner accumulate into one set instead of allocating a fresh bitset
    per disjunct.  Universe sizes must match. *)
val union_into : into:t -> t -> unit

(** [inter_into ~into src] — [into := into ∩ src], in place, no
    allocation.  The conjunction chains of the indexed evaluator and the
    planner accumulate into one set instead of allocating a fresh bitset
    per conjunct.  Universe sizes must match. *)
val inter_into : into:t -> t -> unit

(** [splice ~at ~removed ~inserted s] re-aligns a rank-indexed set with
    one index splice (see {!Index.splice}): bits [[0, at)] keep their
    positions, bits [[at, at + removed)] are dropped, [inserted] fresh
    {e zero} bits appear at [at], and the tail shifts by
    [inserted - removed].  The result's universe is resized to match.
    O(n/64) — this is what lets a cached per-rank set ride through a
    version step without per-member re-ranking. *)
val splice : at:int -> removed:int -> inserted:int -> t -> t

val is_empty : t -> bool
val cardinal : t -> int

(** Synonym for {!cardinal}; reads naturally next to the [_into]
    accumulation loops ([count] after [inter_into] replaces the
    allocate-then-[cardinal] pattern). *)
val count : t -> int
val equal : t -> t -> bool
val subset : t -> t -> bool

(** [iter f s] applies [f] to members in increasing order, skipping
    all-zero words — O(n/8 + |members|), so iterating a sparse candidate
    set is much cheaper than a full rank scan. *)
val iter : (int -> unit) -> t -> unit

(** [iter_rev f s] — members in decreasing order, at [iter]'s cost. *)
val iter_rev : (int -> unit) -> t -> unit

(** [iter_range f s ~lo ~hi] — members within [lo, hi) only, in
    increasing order.  Out-of-range bounds are clamped. *)
val iter_range : (int -> unit) -> t -> lo:int -> hi:int -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t

(** First member, if any. *)
val choose : t -> int option

val pp : Format.formatter -> t -> unit
