(** Directory instances: a forest of entries (Definition 2.1).

    The structure is persistent: updated instances share structure with
    their originals.  This is load-bearing for Section 4 of the paper,
    where incremental legality tests evaluate different sub-expressions of
    one query against [D], [Δ], and [D ± Δ] simultaneously.

    Mutations obey the LDAP update discipline (Section 4.1): new entries
    are roots or children of existing entries; only leaves can be removed
    one entry at a time (subtree removal is provided as the transaction
    abstraction's bulk primitive). *)

type t

type error =
  | Duplicate_id of Entry.id
  | No_such_entry of Entry.id
  | Not_a_leaf of Entry.id
  | Id_clash of Entry.id  (** graft would collide with an existing id *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val empty : t
val size : t -> int
val is_empty : t -> bool
val mem : t -> Entry.id -> bool

(** [entry t id] raises [Not_found] if absent. *)
val entry : t -> Entry.id -> Entry.t

val find : t -> Entry.id -> Entry.t option
val parent : t -> Entry.id -> Entry.id option

(** Children in insertion order. *)
val children : t -> Entry.id -> Entry.id list

(** Children in stored order — most recently added first, i.e. the reverse
    of {!children} — returned without copying.  Hot traversals
    ({!Bounds_query.Index.create}) consume this directly instead of paying
    a [List.rev] allocation per node. *)
val rev_children : t -> Entry.id -> Entry.id list

(** Roots in insertion order. *)
val roots : t -> Entry.id list

(** Roots in stored order (reverse of {!roots}), without copying. *)
val rev_roots : t -> Entry.id list

val is_leaf : t -> Entry.id -> bool
val is_root : t -> Entry.id -> bool

(** {1 Construction} *)

val add_root : Entry.t -> t -> (t, error) result

val add_child : parent:Entry.id -> Entry.t -> t -> (t, error) result

(** [add ~parent e t]: root insertion when [parent = None]. *)
val add : parent:Entry.id option -> Entry.t -> t -> (t, error) result

(** Raising variants for test and example convenience. *)
val add_root_exn : Entry.t -> t -> t

val add_child_exn : parent:Entry.id -> Entry.t -> t -> t

val remove_leaf : Entry.id -> t -> (t, error) result

(** [remove_subtree id t] removes [id] and all its descendants. *)
val remove_subtree : Entry.id -> t -> (t, error) result

(** [subtree t id] extracts the subtree rooted at [id] as a standalone
    instance (entry ids preserved). *)
val subtree : t -> Entry.id -> (t, error) result

(** [graft ~parent sub t] inserts all of [sub] (a forest) under [parent]
    (roots of [sub] become children of [parent], or roots of [t]).
    Fails with [Id_clash] if any id of [sub] is already present. *)
val graft : parent:Entry.id option -> t -> t -> (t, error) result

(** [update_entry id f t] replaces the payload of node [id] by [f e]; the
    id must be unchanged by [f] (enforced). *)
val update_entry : Entry.id -> (Entry.t -> Entry.t) -> t -> (t, error) result

(** {1 Traversal} *)

val fold : (Entry.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Entry.t -> unit) -> t -> unit

(** Depth-first preorder over the whole forest; [depth] is 0 at roots. *)
val iter_preorder : (depth:int -> Entry.t -> unit) -> t -> unit

val ids : t -> Entry.id list
val entries : t -> Entry.t list

(** Descendant ids of [id] in preorder, excluding [id] itself. *)
val descendants : t -> Entry.id -> Entry.id list

(** Ancestor ids of [id], nearest first, excluding [id]. *)
val ancestors : t -> Entry.id -> Entry.id list

(** [is_strict_ancestor t ~anc ~desc]: walks up from [desc]. *)
val is_strict_ancestor : t -> anc:Entry.id -> desc:Entry.id -> bool

val depth : t -> Entry.id -> int

(** Largest id present, [-1] when empty; [fresh_id t] is one past it. *)
val max_id : t -> int

val fresh_id : t -> Entry.id

(** Distinguished name: rdns from the entry up to its root, joined with
    commas (leaf first), e.g. ["uid=laks,ou=databases,o=att"].  One
    allocation (none for a root, whose DN is its rdn).  Raises
    [Not_found] if [id] is absent. *)
val dn : t -> Entry.id -> string

(** [add_dns ?limit t o ids] appends, for each id in turn, a newline
    and [dn t id] to [o]: the one renderer of DN listings (served
    replies, the CLI).  Each DN is written straight into [o], and each
    ancestor's DN is rendered once per call: where it landed in [o] is
    remembered, so siblings copy their parent's DN from there instead
    of walking to the root again.  With [limit], it stops before the
    first DN (other than the first of the call) that would take
    [o.len] past [limit], leaving [o] as it was after the DN before,
    and returns the ids it did not render, so a caller can send what
    fits and call again with the rest; without, it renders them all
    and returns [[]].  Correct for ids in any order, repeats included;
    raises [Not_found] on the first absent id, with the DNs before it
    already appended. *)
val add_dns : ?limit:int -> t -> Outbuf.t -> Entry.id list -> Entry.id list

(** {!iter_preorder} (without the depth) with each entry's DN, rendered
    from its parent's as the walk descends: O(|D|) lookups in all, and
    only the current root path's DNs are kept alive. *)
val iter_preorder_dn : (dn:string -> Entry.t -> unit) -> t -> unit

(** [resolve_dn t dn] finds the entry whose root-path of rdns matches
    [dn] (rdn comparison is case- and whitespace-insensitive; among
    siblings sharing an rdn, the first inserted).  Allocates per DN
    component, not per sibling compared. *)
val resolve_dn : t -> string -> Entry.id option

(** Structural equality: same forest shape (parent relation) and equal
    entries.  Sibling order is ignored, matching the paper's model where
    [N] is an unordered parent/child relation. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
