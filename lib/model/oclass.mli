(** Object class names.

    Object classes are the directory model's (weak) notion of entity type
    (Section 2 of the paper).  Like attribute names they are
    case-insensitive; a {!t} is a normalized class name. *)

type t

(** [of_string s] normalizes [s].  Raises [Invalid_argument] on the empty
    string or characters outside [A-Za-z0-9-_.]. *)
val of_string : string -> t

val of_string_opt : string -> t option
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** The distinguished root class [top] of every class schema
    (Definition 2.3). *)
val top : t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** [mem_caseless s set]: some class in [set] equals [s] up to ASCII
    case ([s] is not trimmed): [Set.mem] of the lowercased [s], without
    lowercasing it.  Allocates nothing when [s] has no capital letter,
    and one closure when it does. *)
val mem_caseless : string -> Set.t -> bool

val set_of_list : string list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
