(** Stateful legality monitor.

    Wraps an instance known to be legal and admits only legality-preserving
    updates, checked incrementally.  Maintains the per-class entry counts
    that make required-class checks O(1) under deletion (the counting
    extension the paper suggests at the end of Section 4), and — when
    extensions are on — a key-value table making directory-wide key checks
    O(|Δ|) per update.

    The monitor is persistent: a rejected update leaves the previous value
    usable, and old versions remain valid snapshots. *)

open Bounds_model

type t

(** [create schema inst] runs a full legality check and builds the
    indexes.  [extensions] (default [true]) also enforces single-valued
    attributes and keys.  The initial full check is the O(|D|) admission
    scan; subsequent incremental checks are O(|Δ|).
    [index]/[vindex]/[memo] are passed through to
    {!Legality.check} for the admission scan — an
    existing evaluation-index snapshot of [inst] is reused rather than
    rebuilt, and a caller-supplied memo comes back prewarmed with every
    subquery of the obligation queries (see {!Directory.open_}). *)
val create :
  ?extensions:bool ->
  ?index:Bounds_query.Index.t ->
  ?vindex:Bounds_query.Vindex.t ->
  ?memo:Bounds_query.Plan.memo ->
  Schema.t ->
  Instance.t ->
  (t, Violation.t list) result

(** [of_index_trusted schema index] wraps [index]'s instance as a monitor
    {e without} the admission scan — the caller vouches that the instance
    is legal (e.g. a batch rebuild of state that was admitted transaction
    by transaction; see {!Directory.Bulk}).  The counting and key tables
    are recomputed from the instance in O(|D|).  Feeding an illegal
    instance through this constructor produces a monitor whose invariant
    is broken — it is deliberately not exported to application code paths
    that have not already paid for admission. *)
val of_index_trusted :
  ?extensions:bool -> Schema.t -> Bounds_query.Index.t -> t

val instance : t -> Instance.t
val schema : t -> Schema.t

(** The live evaluation index of {!instance}: seeded by the admission
    scan (or taken from [create]'s [index] argument) and then patched
    across every accepted update on one {!Bounds_query.Index.Builder}
    per transaction — each Δ is indexed once and spliced by interval
    shifting, never re-traversed, and the builder is sealed once.  Old
    monitor versions keep their own index snapshot. *)
val index : t -> Bounds_query.Index.t

(** Number of entries currently belonging to the class. *)
val class_count : t -> Oclass.t -> int

(** [insert_subtree ~parent delta m] — Δ must be single-rooted with ids
    fresh for the monitored instance.  The one-step transaction of
    {!apply}, through the same code: on acceptance, the new monitor
    comes with the rank-space edits the graft performed on the live
    index ({!Bounds_query.Index.Builder.splices}), for callers migrating
    rank-indexed caches alongside. *)
val insert_subtree :
  parent:Entry.id option ->
  Instance.t ->
  t ->
  (t * Bounds_query.Index.splice list, Violation.t list) result

val delete_subtree :
  Entry.id -> t -> (t * Bounds_query.Index.splice list, Violation.t list) result

(** [modify_entry id f m] — LDAP's attribute-level modification.  The
    update must preserve the entry's class set ([f] changing it is
    rejected as a violation-free [Error] via [Invalid_argument]): with
    classes fixed, legality is affected only through the entry's own
    content and the key table, so the check is O(entry) — the content
    locality of Section 3.1 once more. *)
val modify_entry :
  Entry.id -> (Entry.t -> Entry.t) -> t -> (t, Violation.t list) result

type rejection =
  | Bad_ops of string
  | Illegal of { step : int; violations : Violation.t list }

val pp_rejection : Format.formatter -> rejection -> unit

(** Whole transaction, atomically: decomposed with {!Transaction}, each
    subtree step checked incrementally against the instance and the
    counting and key tables the earlier steps left, then spliced into
    one {!Bounds_query.Index.Builder}, which is sealed once: a
    transaction makes one index version however many steps it has.  On
    rejection the monitor is unchanged.  On acceptance, the accompanying
    splice list is the builder's rank-space edits in application order —
    the exact input {!Bounds_query.Plan.memo_apply} replays over cached
    bitsets. *)
val apply :
  Update.op list -> t -> (t * Bounds_query.Index.splice list, rejection) result

(** Trusted replay of one transaction: same decomposition and the same
    index/count/key-table maintenance as {!apply} (including the
    returned splices), but {e no} legality checks — for records that
    already passed admission when they were first acknowledged (Theorem
    4.1: the monitor only ever admits legality-preserving steps, so
    re-checking a logged transaction can never change the verdict).
    Structural damage — ops that no longer decompose or splice against
    the instance — still rejects as [Bad_ops]; the monitor is unchanged
    in that case. *)
val replay :
  Update.op list -> t -> (t * Bounds_query.Index.splice list, rejection) result
