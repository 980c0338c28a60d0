(** The one admission verdict spoken by every write surface.

    {!Directory.apply}, {!Bounds_store.Store.apply},
    {!Bounds_store.Store.batch} and the network server's writer thread
    all report the outcome of a transaction as one {!result}: what the
    monitor decided ([Accepted]/[Rejected] with the {!Monitor.rejection}
    evidence), the ops it decided about, the size change it caused, and
    — once a durable layer has logged it — the log sequence number.

    [lsn] is [None] at the {!Directory} layer (a session has no log) and
    filled in by {!Bounds_store.Store.apply} with the position it logs
    the record at — durable once the write's append has landed, which is
    before [Store.apply] or [Store.batch] returns. *)

open Bounds_model

type result =
  | Accepted of {
      lsn : int option;  (** durable log position, once a store logged it *)
      ops : Update.op list;
      entries_before : int;
      entries_after : int;
    }
  | Rejected of { reason : Monitor.rejection; ops : Update.op list }

val accepted : result -> bool
val ops : result -> Update.op list

(** [None] for rejections and for layers without a log. *)
val lsn : result -> int option

(** [Some] exactly when rejected. *)
val reason : result -> Monitor.rejection option

(** Entry-count change; [0] for rejections. *)
val entries_delta : result -> int

(** Stamp the log position onto an accepted verdict (identity on
    rejections) — used by the store layer as it encodes the record. *)
val with_lsn : int -> result -> result

val pp : Format.formatter -> result -> unit
