(** LDAP boolean filters — the atomic selections of the query language.

    A filter is a boolean combination of assertions on a single entry's
    (attribute, value) pairs, in the style of RFC 2254.  Assertion values
    are raw strings; matching is performed on the string rendering of
    stored values, case-insensitively (LDAP's [caseIgnoreMatch] default).
    Ordering assertions ([>=], [<=]) compare numerically when both sides
    parse as integers, lexicographically otherwise. *)

open Bounds_model

type substring = {
  initial : string option;
  any : string list;
  final : string option;
}

type t =
  | Present of Attr.t  (** presence: [a=*] *)
  | Eq of Attr.t * string  (** equality: [a=v] *)
  | Ge of Attr.t * string  (** ordering: [a>=v] *)
  | Le of Attr.t * string  (** ordering: [a<=v] *)
  | Substr of Attr.t * substring  (** substring: [a=i*m1*m2*f] *)
  | And of t list  (** conjunction [&f1..fn]; [And []] is true *)
  | Or of t list  (** disjunction [|f1..fn]; [Or []] is false *)
  | Not of t

(** [(objectClass=c)] — the only filter shape the Figure-4 translation
    needs. *)
val class_eq : Oclass.t -> t

(** [matches f e] decides whether entry [e] satisfies [f].  [Present]
    and [Eq] are decided in place — values compared with the assertion
    up to ASCII case without lowercased copies, [objectClass] tested on
    the entry's class set — so they allocate nothing, bar one closure
    for an [objectClass] assertion with capital letters; nor do [And],
    [Or] and [Not] around them. *)
val matches : t -> Entry.t -> bool

(** Number of nodes — the [|Q|] contribution of atomic selections. *)
val size : t -> int

(** RFC-2254-style rendering, parseable back by {!Filter_parser}. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** [attributes f] — all attributes mentioned. *)
val attributes : t -> Attr.Set.t
