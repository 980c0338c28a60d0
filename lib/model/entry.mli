(** Directory entries.

    An entry pairs a finite, non-empty set of object classes with a finite
    set of (attribute, value) pairs (Definition 2.1).  Condition 3b of the
    definition — the values of the [objectClass] attribute are exactly the
    classes the entry belongs to — is maintained by construction: the class
    set is the single source of truth, and [objectClass] pairs are
    synthesized on read and rejected on write. *)

type id = int

type t

(** [make ~id ~rdn ~classes pairs] builds an entry.  [pairs] must not
    mention [objectClass] (use [classes]); duplicates are collapsed (value
    sets, not bags).  Raises [Invalid_argument] if [classes] is empty or
    [pairs] mentions [objectClass]. *)
val make :
  id:id -> ?rdn:string -> classes:Oclass.Set.t -> (Attr.t * Value.t) list -> t

val id : t -> id

(** The relative distinguished name, e.g. ["uid=laks"].  Defaults to
    ["id=<n>"]. *)
val rdn : t -> string

(** [class(e)]: the set of object classes the entry belongs to. *)
val classes : t -> Oclass.Set.t

val has_class : t -> Oclass.t -> bool
val n_classes : t -> int

(** [values e a] is the set of values of attribute [a] in [val(e)], sorted.
    [values e objectClass] synthesizes the class names as strings. *)
val values : t -> Attr.t -> Value.t list

(** [has_attr e a] is [values e a <> []]: a stored attribute is never
    bound to an empty value list. *)
val has_attr : t -> Attr.t -> bool
val has_pair : t -> Attr.t -> Value.t -> bool

(** All pairs of [val(e)], including the synthesized [objectClass] pairs. *)
val pairs : t -> (Attr.t * Value.t) list

(** Pairs excluding [objectClass] (what [make] accepts back). *)
val stored_pairs : t -> (Attr.t * Value.t) list

(** The attributes present in [val(e)], including [objectClass]. *)
val attributes : t -> Attr.Set.t

(** [|val(e)|], counting the synthesized [objectClass] pairs. *)
val n_pairs : t -> int

(** Functional updates.  [add_value]/[remove_value] reject [objectClass]
    with [Invalid_argument]; use [with_classes]. *)
val add_value : Attr.t -> Value.t -> t -> t

val remove_value : Attr.t -> Value.t -> t -> t
val remove_attr : Attr.t -> t -> t
val with_classes : Oclass.Set.t -> t -> t
val add_class : Oclass.t -> t -> t
val with_id : id -> t -> t
val with_rdn : string -> t -> t

(** Structural equality on (id, rdn, classes, pairs). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
