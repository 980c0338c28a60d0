(** Content-schema legality (Section 3.1).

    Content legality is checkable one entry at a time — the property that
    makes content checks trivially incremental under updates (Section 4.2).
    Per entry, the class-schema test runs in
    O(|class(e)| + max |Aux(c)| · depth(H)) and the attribute-schema test
    in O(|val(e)| + Σ_{c ∈ class(e)} |a(c)|), as stated in the paper. *)

open Bounds_model

(** All content violations of a single entry. *)
val check_entry : Schema.t -> Entry.t -> Violation.t list

(** Class-schema clauses only (Definition 2.7, "Class Schema"). *)
val check_classes : Schema.t -> Entry.t -> Violation.t list

(** Attribute-schema clauses only (Definition 2.7, "Attribute Schema"). *)
val check_attributes : Schema.t -> Entry.t -> Violation.t list

(** Typing (Definition 2.1, condition 3a). *)
val check_typing : Schema.t -> Entry.t -> Violation.t list

(** [check schema inst] checks every entry: the per-entry violation
    lists, concatenated in traversal order. *)
val check : Schema.t -> Instance.t -> Violation.t list

val entry_is_legal : Schema.t -> Entry.t -> bool
val is_legal : Schema.t -> Instance.t -> bool
