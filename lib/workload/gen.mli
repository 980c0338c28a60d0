(** Deterministic pseudo-random generators for instances, schemas and
    update operations — shared by the benchmark harness and the
    property-based tests. *)

open Bounds_model
open Bounds_core

(** [random_forest ~seed ~size ~max_fanout ~mk_entry ()] — a forest of
    [size] entries with ids [0..size-1]; each non-first entry attaches to
    a random earlier entry (or becomes a root with probability ~1/8).
    Fanout is capped at [max_fanout]. *)
val random_forest :
  seed:int ->
  size:int ->
  ?max_fanout:int ->
  mk_entry:(Random.State.t -> int -> Entry.t) ->
  unit ->
  Instance.t

(** An entry generator producing content-legal entries for a schema:
    a random core class's upward closure, a random allowed auxiliary
    class, and the required attributes of all of them (unique values for
    key attributes).  [counter] backs key uniqueness; it defaults to a
    process-wide counter — pass a local ref for runs that must be
    deterministic regardless of what generated before (fuzzing). *)
val content_legal_entry :
  ?counter:int ref -> Schema.t -> Random.State.t -> int -> Entry.t

(** A content-legal random forest for a schema (structure legality is
    {e not} guaranteed). *)
val content_legal_forest :
  ?counter:int ref -> seed:int -> size:int -> ?max_fanout:int -> Schema.t -> Instance.t

(** [random_class_tree ~seed ~n] — a core-class tree with [n] classes
    besides [top], named [c0..c(n-1)]. *)
val random_class_tree : seed:int -> n:int -> Class_schema.t

(** [random_schema ~seed ~n_classes ~n_req ~n_forb ~n_required_classes]
    — random class tree plus random structure elements over it.  Not
    necessarily consistent: that is the point (consistency tests and
    benches classify them). *)
val random_schema :
  seed:int ->
  n_classes:int ->
  n_req:int ->
  n_forb:int ->
  n_required_classes:int ->
  Schema.t

(** [random_ops ~seed ~n inst] — a valid operation sequence against
    [inst]: entry insertions under random existing entries (fresh ids)
    and deletions of current leaves, interleaved. *)
val random_ops :
  ?counter:int ref -> seed:int -> n:int -> Schema.t -> Instance.t -> Update.op list

(** {1 Adversarial generators (differential fuzzing)} *)

(** A string assembled from codec/parser edge-case fragments: leading and
    trailing whitespace, CRLF, base64 alphabet and padding, filter
    metacharacters ([()*\ ]), high bytes, NUL. *)
val adversarial_string : Random.State.t -> string

(** A forest of [top]-class entries whose string attribute values are
    adversarial — the LDIF round-trip oracle's input. *)
val adversarial_forest : seed:int -> size:int -> unit -> Instance.t

(** A random boolean/substring filter over a small attribute set, with
    adversarial values mixed in.  Never produces the unprintable
    [Substr {initial = None; any = []; final = None}]. *)
val random_filter : depth:int -> Random.State.t -> Bounds_query.Filter.t

(** A random hierarchical query whose atoms are {!random_filter}s. *)
val random_query : depth:int -> Random.State.t -> Bounds_query.Query.t

(** A random schema exercising every component: class tree with
    auxiliaries, per-class attribute declarations over a typed pool,
    structure elements, single-valued attributes and keys.  Well-formed by
    construction; not necessarily consistent. *)
val random_schema_rich : seed:int -> unit -> Schema.t

(** A content-legal forest with about a third of the entries corrupted
    (extra classes, dropped/added pairs, duplicated values) — input for
    the legality differential oracles. *)
val mutated_forest :
  ?counter:int ref -> seed:int -> size:int -> Schema.t -> Instance.t
