(** Injectable file I/O for the durable store.

    Every byte the store reads or writes goes through one of these
    handles, so crash behaviour is testable from pure OCaml: {!faulty}
    wraps any handle with a deterministic fault schedule that can kill
    the "process" ({!Crash}), tear a write at a byte offset, or flip a
    bit of a payload — and an in-memory file system ({!mem}) survives
    the simulated death, so a test can crash one handle and recover
    through a fresh one over the same state.

    Operations are whole-file reads, atomic replaces, and synced
    appends — exactly the primitives a log-structured store needs, and
    few enough that the fault schedule stays meaningful. *)

(** Raised by a faulty handle when its schedule says the process dies
    here; every later operation on the same handle raises it again (a
    dead process does not come back). *)
exception Crash

(** A handle is an open record so tests can wrap individual operations
    (e.g. to trace append sizes before choosing crash points).  [write]
    is an atomic create-or-replace; [append] appends and makes the new
    bytes durable; [read] returns [None] for a missing file; [remove] is
    idempotent; [rename] atomically replaces the destination. *)
type t = {
  read : string -> string option;
  write : string -> string -> unit;
  append : string -> string -> unit;
  remove : string -> unit;
  rename : string -> string -> unit;
}

(** {1 Real files} *)

(** [real ~root] resolves paths under the directory [root] (created if
    missing); stale temp files from interrupted writers are removed:
    only names of the form [<name>.tmp.<pid>.<k>], the ones [write]
    makes, so no other file in [root] is touched.

    [write] goes through a uniquely-named temporary file (pid +
    counter, so concurrent writers never corrupt each other) and
    [Sys.rename], so a reader never observes a half-written file.

    [fsync] (default [true]) is what makes the handle {e durable}, not
    just atomic: the file descriptor is fsynced before every
    close/rename and the store directory is fsynced after renames and
    file-creating appends, so once [write]/[append] returns the bytes
    survive power loss — the property the WAL's written-pre-acknowledge
    argument rests on.  [~fsync:false] stops at the OS page cache
    (atomicity against concurrent readers is kept, durability is not):
    for benchmarks that isolate fsync cost, never for stores whose
    acknowledgements anyone trusts.

    The first handle reserves one descriptor for the whole process.
    An [append] whose open is refused for want of descriptors (EMFILE,
    ENFILE) releases it and retries, then reserves it again once the
    file is closed, so a daemon whose connections hold every other
    descriptor still commits. *)
val real : ?fsync:bool -> root:string -> unit -> t

(** {1 In-memory files} *)

(** The backing state of {!mem} handles: a path → contents map that
    outlives any individual handle.  Append-heavy files are held as
    growable buffers internally (appends are amortized O(|data|), not
    O(|file|) — scripted fuzz/crash sessions append thousands of
    records), materialized on read. *)
type fs

val fresh_fs : unit -> fs

(** An independent snapshot of the state — replay many fault schedules
    from one prepared base. *)
val copy_fs : fs -> fs

val mem : fs -> t

(** Test access to the raw state, for building corruption scenarios
    directly ([read_fs] of a missing path is [None]). *)
val read_fs : fs -> string -> string option

val write_fs : fs -> string -> string -> unit
val remove_fs : fs -> string -> unit

(** {1 Fault injection} *)

(** Faults are scheduled by {e mutating-operation index}: the [op]th
    call to [write]/[append]/[remove]/[rename] on the handle, counting
    from 0.  Reads never count and never fail (a dead handle raises
    {!Crash} on them anyway).

    - [Crash_at] dies before the operation touches anything.
    - [Tear] applies only the first [keep] bytes of the operation's
      payload, then dies — a torn write.  On [remove]/[rename] (no
      payload) it behaves like [Crash_at].
    - [Flip] damages bit [bit] of byte [byte] of the payload and lets
      the operation succeed — silent corruption, no crash. *)
type fault =
  | Crash_at of int
  | Tear of { op : int; keep : int }
  | Flip of { op : int; byte : int; bit : int }

(** [faulty ~faults io] wraps [io] with the schedule.  Multiple faults
    may target distinct ops; the first crash-fault to fire marks the
    handle dead. *)
val faulty : faults:fault list -> t -> t

(** [counting io] returns a wrapped handle plus a function listing, in
    op order, each mutating operation performed through it as
    [(op_index, payload_size)] ([remove]/[rename] record size 0) — the
    raw material for enumerating every crash point of a scenario. *)
val counting : t -> t * (unit -> (int * int) list)
