(** Directory-wide keys (Section 6.1, "Keys").

    A key attribute's values must be unique {e across the whole directory
    instance}, not merely within an object class — the paper observes that
    the loose notion of object class forces directory-wide uniqueness.
    (The distinguished name is always a key; that one holds by
    construction of the forest.) *)

open Bounds_model

(** One violation per (attribute, value) shared by ≥ 2 entries, sorted. *)
val check : Schema.t -> Instance.t -> Violation.t list
