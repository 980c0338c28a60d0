(** Durable directory sessions.

    A store is a directory session ({!Bounds_core.Directory}) layered
    over three files inside one store directory:

    - [schema.spec] — the bounding-schema, written once at {!init} (its
      presence is the store marker: it is the last file [init] writes);
    - [checkpoint.ckpt] — one {!Frame}-wrapped snapshot of the instance
      at some log sequence number ({!Checkpoint}: a text header, then the
      {!Codec} transaction that inserts every entry), replaced atomically
      only by a {e full} {!checkpoint} (collapse) or a bulk {!load};
    - [wal.log] — the write-ahead transaction log: every transaction
      accepted since the last full snapshot, appended as one CRC-framed
      record {e before} {!apply} acknowledges it, cut into segments by
      the marker records that soft {!checkpoint}s append; collapsed into
      a fresh full snapshot once it holds eight segments.

    The store writes its own log.  Every write — {!apply}, {!batch},
    {!replica_apply} — is one step: admit through the hook-free
    {!Bounds_core.Directory.apply} (or, for a shipped record, replay
    through the trusted {!Bounds_core.Directory.replay}), encode the
    record, and land the whole write with one append (one fsync), then
    count, ship and auto-compact.  An unbatched [apply] is a batch of
    one.

    Recovery ({!open_}) loads the checkpoint, folds the log in lsn
    order, and {e truncates} it at the first record that is torn,
    corrupt, out of sequence, or no longer applies — damaged tails yield
    a positioned {!Recovered_at} report, never an exception.  Records
    whose lsn is already covered are skipped as duplicates, which is
    what makes the collapse (snapshot-rewrite-then-reset) crash-safe at
    every intermediate point.

    All I/O goes through an {!Io.t}, so the same code runs against real
    files ({!Io.real}) and against the fault-injecting harness
    ({!Io.faulty}) used by the crash-recovery tests. *)

open Bounds_model
open Bounds_core

(** Store-relative file names (useful to damage a store on purpose). *)

val schema_file : string
val checkpoint_file : string
val wal_file : string

(** A file name no store reads or writes any more; kept for callers
    that still name it. *)
val delta_file : string

type t

type error =
  | Not_a_store of string  (** missing [schema.spec]: never initialized *)
  | Already_a_store  (** {!init} refuses to clobber an existing store *)
  | Corrupt of string
      (** unreadable schema or checkpoint, or a checkpoint of another
          format (an older build's [v1] among them), named by its tag *)
  | Illegal of Violation.t list
      (** the initial instance ({!init}), the recovered instance
          ({!open_}: checkpoint plus logged tail), or the result of an
          untrusted bulk {!load} fails the admission scan *)
  | Bad_load of string
      (** a bulk {!load} feed failed (unreadable input, structurally
          impossible entry); nothing was committed *)

val error_to_string : error -> string

(** How {!open_} found the log tail. *)
type tail =
  | Clean  (** every record after the checkpoint replayed *)
  | Recovered_at of { offset : int; reason : string }
      (** the log was truncated to [offset] bytes; [reason] says what
          was wrong with the first discarded record *)

type report = {
  checkpoint_lsn : int;  (** lsn of the loaded base checkpoint *)
  replayed : int;  (** log tail records re-applied *)
  skipped : int;  (** duplicate log records (lsn already covered) skipped *)
  tail : tail;  (** how the log ended *)
  segments : int;  (** segment markers folded *)
}

val pp_report : Format.formatter -> report -> unit

(** The {!report} {!open_} returned for this handle ([None] for a store
    born of {!init}) — surfaced by server stats so a recovered-at tail
    is visible over the wire, not just in the opening process's logs. *)
val recovery : t -> report option

(** [exists io] — does [io]'s root hold an initialized store? *)
val exists : Io.t -> bool

(** [init io schema inst] creates a fresh store: admission-scans [inst]
    (so an illegal seed is [Error (Illegal _)]), writes the lsn-0
    checkpoint, an empty log, and finally the schema marker.
    [auto_checkpoint] (default [0] = never) compacts automatically once
    that many records accumulate in the log. *)
val init :
  ?auto_checkpoint:int ->
  Io.t ->
  Schema.t ->
  Instance.t ->
  (t, error) result

(** [open_ io] recovers a store: checkpoint load + one streaming pass
    over the log ({!Wal.fold} — O(record) memory however long the log),
    then truncates any damaged tail so subsequent appends extend the
    durable prefix.  The returned {!report} says how far recovery got.

    The tail is trusted: every logged record passed admission before it
    was acknowledged and the CRC frame vouches the bytes are unchanged,
    so each record folds into the checkpoint's instance with
    {!Update.apply} alone.  The session is then built once by
    {!Directory.open_}: one index, value index, memo and monitor, and
    one admission scan of the recovered instance — O(|D| + Δ) instead
    of O(Δ · re-admission).  If that scan finds the instance illegal
    (a [~trust:true] {!load} of an illegal dump, or a CRC-valid record
    that was never admitted), [open_] is [Error (Illegal _)] and no file
    is truncated.  The checked engine lives in {!Private}. *)
val open_ : ?auto_checkpoint:int -> Io.t -> (t * report, error) result

val schema : t -> Schema.t

(** The live session over the store's current version.  Reads
    ({!Directory.query}, {!Directory.search}, {!Directory.validate},
    …) go straight through it; writes must go through {!apply} below
    or they will not be logged. *)
val directory : t -> Directory.t

(** Last durable log sequence number. *)
val lsn : t -> int

(** Current log size in bytes / transaction records (since the last
    full snapshot; segment markers count as bytes, not records). *)
val wal_bytes : t -> int

val wal_records : t -> int

(** Segments marked in the log since the last full snapshot; zero right
    after a full {!checkpoint} or {!load}. *)
val segments : t -> int

(** Session statistics accumulated {e across} crashes: the checkpoint
    header's totals plus everything the live session has done since.
    [applied] and [rejected] count a transaction only once its write
    has landed: a write that rolls back counts nothing. *)
val stats : t -> Checkpoint.meta

(** [apply t ops] — admit the transaction, append its record to the log,
    and only then advance the store to the new version — a {!batch} of
    one.  Rejected transactions touch neither the log nor the session.
    An accepted verdict carries the record's durable lsn
    ({!Bounds_core.Admission.lsn}); the advanced session is available
    through {!directory}.  An accepted transaction with no ops changes
    nothing and is not logged: its verdict carries no lsn, and it costs
    no append, no fsync and no ship, nor counts as applied.  If the append raises, the store stays at the
    previous version and the exception propagates.  Inside {!batch},
    the record is staged for the batch's shared append instead. *)
val apply : t -> Update.op list -> Admission.result

(** [batch t f] — group commit.  {!apply}s made by [f] are admitted
    one by one against the rolling version exactly as usual, but their
    log records are buffered; when [f] returns they are appended in
    {e one} I/O operation — one shared fsync on a durable {!Io.real}
    handle — and only then does [batch] return [f]'s result alongside
    the per-transaction {!Bounds_core.Admission.result}s, in apply
    order.  Callers must not acknowledge any transaction of the batch
    before [batch] returns.  The resulting log bytes are identical to
    sequential {!apply}s of the same accepted transactions (same lsns,
    same frames), so recovery cannot tell batches apart — the
    group-commit equivalence the [test_net] property pins down.

    Crash/failure discipline: a crash before the shared append loses
    the whole (unacknowledged) batch; a torn append leaves a prefix of
    whole records that recovery replays — admitted but unacknowledged
    transactions, which the durability contract permits (acknowledged ⊆
    recovered).  If the append raises, the store rolls back to the
    batch-start version and lsn, and the exception propagates with the
    handle still usable.  Auto-compaction is deferred to the flush.
    Nesting [batch], or calling {!checkpoint}/{!load} inside [f], is a
    programming error. *)
val batch : t -> (unit -> 'a) -> 'a * Admission.result list

(** Compact in O(1): close the current segment by appending one marker
    record to the log; nothing is read or copied, and a log with no
    records since the last marker gets none.  Once the log holds eight
    segments (or with [~full:true]), collapse instead: rewrite the whole
    snapshot (atomic replace), reset the log — O(|D|), amortized over
    the segments.

    Every intermediate state recovers: a torn marker is a torn tail,
    which recovery cuts without losing a transaction; a crash inside a
    collapse leaves log records the new snapshot already covers, which
    replay skips. *)
val checkpoint : ?full:bool -> t -> unit

(** [load t feed] — streaming bulk load.  [feed add] drives the load,
    calling [add ~parent entry] once per entry (parents before
    children, ids fresh for the store); entries flow straight into a
    {!Directory.Bulk} builder, so arbitrarily large dumps load in
    O(entry) working memory and one bulk index build.  Unless [trust]
    is set, the final instance must pass {e one} full admission check
    ([Error (Illegal _)] otherwise); [trust] skips it for
    pre-validated dumps.  Nothing is committed until the feed and the
    check succeed — the commit is an atomic checkpoint replace plus log
    reset (loaded entries bypass the WAL deliberately), after which
    [Ok n] reports the entries added.  An [Error] from [feed] or a
    structurally impossible entry aborts with [Bad_load] and the store
    is unchanged. *)
val load :
  ?trust:bool ->
  t ->
  ((parent:Entry.id option -> Entry.t -> (unit, string) result) ->
  (unit, string) result) ->
  (int, error) result

(** Ends a store's use.  It releases nothing: a store holds no open
    file between calls (every append opens, fsyncs and closes its file),
    so dropping the value is enough. *)
val close : t -> unit

(** {1 Replication — WAL shipment}

    A primary streams every acknowledged record to its subscribers; a
    replica applies them through the trusted {!Directory.replay} path
    under the recovery lsn discipline.  The paper's
    admission-at-acknowledge argument (Theorem 4.1 — the same one that
    justifies trusted replay) is what makes re-checking legality on the
    replica unnecessary: the record was admitted when the primary
    acknowledged it, and the frame CRC vouches the bytes are unchanged. *)

(** One event on the replication feed. *)
type ship =
  | Ship_txn of { lsn : int; ops : Update.op list }
      (** a record, fired only once its bytes are durable on the
          primary — after the append in {!apply}, after the shared
          flush in {!batch} *)
  | Ship_mark of { lsn : int }
      (** the primary compacted ({!checkpoint}); replicas may fold
          their own logs on the same beat *)

(** Install (or clear) the feed hook.  The hook runs on the committing
    thread, after durability and before {!apply}/{!batch} return —
    i.e. on the exact beat the caller is first allowed to acknowledge.
    A raising hook is ignored: the feed can never fail a commit that is
    already durable. *)
val set_ship_hook : t -> (ship -> unit) option -> unit

(** [records_from t ~lsn] — catch a subscriber up: every durable record
    with lsn strictly greater than [lsn], oldest first.  [`Too_old] when the base checkpoint already folded lsns
    past [lsn] (or [lsn] is beyond this store's history): the
    subscriber needs a {!boot_blob} bootstrap instead. *)
val records_from :
  t -> lsn:int -> [ `Records of (int * Update.op list) list | `Too_old ]

(** The current version as a bootstrap package:
    [(schema text, checkpoint blob, lsn)].  O(|D|) — the feed sends it
    once per subscriber that cannot catch up from the logs. *)
val boot_blob : t -> string * string * int

(** [install_snapshot io ~schema ~checkpoint] writes a shipped
    bootstrap package as a store directory (validating the blob against
    the schema first), replacing any store already there; re-open with
    {!open_}.  Marker-last write order keeps every crash point
    recoverable. *)
val install_snapshot :
  Io.t -> schema:string -> checkpoint:string -> (unit, string) result

(** [replica_apply t ~lsn ops] — the replica's write surface, the
    trusted case of {!apply}: replay the shipped record in memory
    through {!Directory.replay}, then land it through the same append as
    {!apply}, at the shipped lsn (acknowledged ⊆ recovered holds on the
    replica too).  [Ok `Duplicate] when [lsn] is already covered (the
    overlap a resume-from-lsn re-subscription produces — never
    re-applied); [Error] on an lsn gap or an unappliable record, with
    the log untouched — the caller should re-bootstrap. *)
val replica_apply :
  t -> lsn:int -> Update.op list -> ([ `Applied | `Duplicate ], string) result

(** Differential testing and benchmarks only. *)
module Private : sig
  (** Recover re-running full admission per record
      ({!Directory.apply}) on a session opened from the checkpoint —
      the differential twin of trusted replay and the benchmark
      baseline.  A record the monitor rejects ends replay and is
      truncated like any other damage. *)
  val open_checked : Io.t -> (t * report, error) result
end
