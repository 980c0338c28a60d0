(** Single-valued attributes (Section 6.1, "Numeric Restrictions").

    LDAP lets a schema declare that particular attributes may carry at
    most one value per entry.  The paper notes this is orthogonal to
    bounding-schemas; it composes as an extra per-entry check. *)

open Bounds_model

val check_entry : Schema.t -> Entry.t -> Violation.t list

(** Every entry's violations, in traversal order. *)
val check : Schema.t -> Instance.t -> Violation.t list
