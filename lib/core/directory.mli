(** Live directory sessions: one facade over the schema monitor, the
    evaluation index, the value/range/trigram tables, and the query memo.

    A {!t} is a persistent handle on a directory known to be legal.  It
    owns every auxiliary structure the library can maintain for one
    instance version and keeps all of them {e incrementally} consistent
    across updates:

    - the {!Bounds_query.Index} preorder encoding steps to a chunked
      copy-on-write version ({!Bounds_query.Index.Builder}) — each
      accepted Δ is indexed once and spliced, copying only the chunks it
      touches while everything else is shared structurally with the
      previous version;
    - the {!Bounds_query.Vindex} value tables are patched per touched
      key on persistent maps, with range/trigram tables for touched
      attributes evicted and lazily rebuilt;
    - the {!Bounds_query.Plan} memo is migrated ({!Bounds_query.Plan.memo_apply}):
      pointwise cache entries survive the update — their bitsets are
      spliced along the same rank-space edits the index performed — and
      χ-dependent ones are dropped.  A version's memo is written only
      before anything reads it: by the admission scan's prewarm, or by
      the migration that builds it.  Reads never write it.

    Like the underlying {!Monitor}, a session value is persistent: a
    rejected {!apply} leaves the previous value usable, and superseded
    versions remain valid {!Snapshot}s of their instance version. *)

open Bounds_model

(** {1 Read-only snapshots}

    A snapshot bundles the (index, vindex, memo) triple of {e one}
    instance version and is the {e only} read surface the library
    exposes: every query, search, explain and validation goes through a
    snapshot (or through the session conveniences below, which evaluate
    on the current version's snapshot state).  The underlying structures
    are deliberately not exported — versions share chunks and postings
    structurally, so handing out a raw index invites callers to assume a
    flat per-version copy that no longer exists.  Differential tests and
    benchmarks that must compare the raw structures go through
    {!Snapshot.Private}.  A snapshot performs no legality checking of
    its own. *)

module Snapshot : sig
  type t

  (** Build every auxiliary structure for [inst]. *)
  val of_instance : Instance.t -> t

  val instance : t -> Instance.t

  (** Evaluate through the snapshot's memo, reading it and never
      writing it ({!Bounds_query.Plan.memo_eval}): any number of
      concurrent readers may evaluate over one snapshot — the lock-free
      read path of {!Bounds_net.Front}'s snapshot isolation. *)
  val query : t -> Bounds_query.Query.t -> Bounds_query.Bitset.t

  val query_ids : t -> Bounds_query.Query.t -> Entry.id list

  (** Another name for {!query_ids}. *)
  val query_ids_ro : t -> Bounds_query.Query.t -> Entry.id list

  (** Evaluate through the cost-based planner, returning the executed
      plan (with actual cardinalities recorded) alongside the answer's
      ids — the [--explain] path. *)
  val explain :
    t -> Bounds_query.Query.t -> Bounds_query.Plan.t * Entry.id list

  (** LDAP-style scoped search over the snapshot. *)
  val search :
    t ->
    base:Entry.id option ->
    Bounds_query.Search.scope ->
    Bounds_query.Filter.t ->
    Entry.id list

  (** Full legality check of the snapshot's instance, reusing its index,
      vindex and memo.  Its prewarm tops up the memo with the
      obligation subqueries the memo lacks, so validate a snapshot
      before it is shared with reader threads, never after. *)
  val validate : ?extensions:bool -> Schema.t -> t -> Violation.t list

  (** Escape hatch to the raw per-version structures, for differential
      oracles and benchmarks that compare them against independently
      rebuilt twins.  Application code has no business here: the
      structures are shared across versions (chunks, postings, cached
      bitsets) and must be treated as immutable. *)
  module Private : sig
    val index : t -> Bounds_query.Index.t
    val vindex : t -> Bounds_query.Vindex.t
    val memo : t -> Bounds_query.Plan.memo
  end
end

(** {1 Live sessions} *)

type t

(** [open_ schema inst] runs the full admission scan (via
    {!Monitor.create}, with the Section 6.1 single-valued and key
    extensions enforced) and builds the session's index, value tables
    and memo; the scan prewarms the memo with every subquery of the
    Figure-4 obligation queries, and the memo is carried across every
    update.  [Error] carries the violations of an illegal [inst]. *)
val open_ : Schema.t -> Instance.t -> (t, Violation.t list) result

val schema : t -> Schema.t
val monitor : t -> Monitor.t
val instance : t -> Instance.t

(** Number of entries in the current version. *)
val size : t -> int

(** {2 Reads}

    Each read is the {!Snapshot} read of the current version
    ({!snapshot}); all but {!validate} count one query in {!stats}. *)

val query : t -> Bounds_query.Query.t -> Bounds_query.Bitset.t
val query_ids : t -> Bounds_query.Query.t -> Entry.id list
val explain : t -> Bounds_query.Query.t -> Bounds_query.Plan.t * Entry.id list

val search :
  t ->
  base:Entry.id option ->
  Bounds_query.Search.scope ->
  Bounds_query.Filter.t ->
  Entry.id list

(** {!Snapshot.validate} under the session's schema, reusing its index,
    value tables and migrated memo.  Always [[]] after a successful
    {!open_}/{!apply} — exposed for auditing and testing. *)
val validate : t -> Violation.t list

(** [apply t ops] — the whole transaction atomically under incremental
    legality ({!Monitor.apply}); on acceptance the index, value tables
    and memo are all carried forward incrementally, and the returned
    session is the new version.  On rejection the returned session is
    [t] itself, unchanged and still usable.  Either way the
    {!Admission.result} carries the verdict — the one result shape every
    write surface ({!Bounds_store.Store.apply},
    {!Bounds_store.Store.batch}, the network writer) reports.  A session
    has no log: making the version durable is the caller's business
    ({!Bounds_store.Store.apply} logs it before acknowledging). *)
val apply : t -> Update.op list -> t * Admission.result

(** [replay t ops] — trusted fast path for transactions that {e already}
    passed admission when they were first acknowledged (a replica's
    shipped records, {!Bounds_store.Store.replica_apply}): the
    instance, index, value tables and memo are all maintained exactly
    as by {!apply}, but no legality check runs.  Structurally impossible
    ops — damage, not illegality — still reject as [Bad_ops].  Feeding
    never-admitted transactions through [replay] voids the session's
    legality invariant; see the safety argument in DESIGN.md. *)
val replay : t -> Update.op list -> (t, Monitor.rejection) result

(** Batched trusted ingest: fold many already-admitted transactions into
    a session with no per-transaction index work.  Ops land on a
    copy-on-write instance only, and {!Bulk.finish} builds the index,
    value tables, memo and admission tables once against the final
    instance: O(n + Δ) for any number of transactions.

    Like {!replay}, no legality checks — callers own them
    ({!Bounds_store.Store.load} runs one on the final instance unless
    trusted). *)
module Bulk : sig
  type session := t
  type t

  val start : session -> t

  (** Fold one transaction in (mutates the builder).  On [Error] the
      builder is unchanged and still usable; the record is not counted. *)
  val add : t -> Update.op list -> (unit, Monitor.rejection) result

  (** The ingested session: one build of every structure, with the
      monitor wrapped by {!Monitor.of_index_trusted} (no admission
      scan). *)
  val finish : t -> session
end

(** The current version's (index, vindex, memo) as an immutable
    {!Snapshot} — remains valid after further [apply]s on the session. *)
val snapshot : t -> Snapshot.t

(** {1 Stats} *)

type stats = {
  entries : int;  (** instance size of the current version *)
  queries : int;  (** queries/searches/explains served by the session *)
  applied : int;
      (** transactions accepted or replayed by any version of the
          session; {!Bounds_store.Store.stats} counts only durable ones *)
  rejected : int;  (** rejected transactions *)
  memo_entries : int;  (** cached queries ({!Bounds_query.Plan.memo_size}) *)
  memo_migrated : int;  (** cache entries carried across updates *)
  memo_dropped : int;  (** χ-dependent entries re-evaluated instead *)
  intern : Intern.stat list;
      (** process-wide hash-cons pool counters (attr/oclass/rdn/value/vkey) *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
