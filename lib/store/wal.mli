(** The write-ahead transaction log.

    An append-only file of {!Frame}-wrapped {!Codec} transactions, one
    per accepted update.  Appends are O(|Δ|) — the whole point of
    logging instead of rewriting the instance — and the scanner is
    total: a damaged tail (torn header, torn payload, flipped bit,
    undecodable ops) ends the valid prefix with a positioned reason and
    never raises. *)

open Bounds_model

type record = {
  offset : int;  (** byte offset of the record's frame in the log *)
  lsn : int;
  ops : Update.op list;
}

type truncation = { offset : int; reason : string }

type 'a folded = {
  acc : 'a;
  end_offset : int;  (** where the longest decodable prefix ends *)
  truncated : truncation option;
      (** damage past [end_offset], if the log does not end cleanly *)
}

(** [fold io path f init] streams the longest decodable prefix in order,
    decoding one record at a time — recovery over a long log runs in
    O(record) memory instead of materializing the whole record list.  A
    missing log is an empty one; like {!scan}, damage ends the fold with
    a positioned reason and never raises. *)
val fold : Io.t -> string -> ('a -> record -> 'a) -> 'a -> 'a folded

(** [fold_from io path ~lsn f init] — {!fold} restricted to records with
    lsn strictly greater than [lsn]: the catch-up read of WAL shipment
    (a subscriber names the last lsn it holds; segment markers carry
    lsn 0 and are skipped with the other duplicates). *)
val fold_from :
  Io.t -> string -> lsn:int -> ('a -> record -> 'a) -> 'a -> 'a folded

type scan = {
  records : record list;  (** the longest decodable prefix, in order *)
  end_offset : int;  (** where that prefix ends *)
  truncated : truncation option;
      (** damage past [end_offset], if the log does not end cleanly *)
}

(** [scan io path] — {!fold} materialized, for callers that want the
    whole list (e.g. the [log] inspection verb). *)
val scan : Io.t -> string -> scan

(** One record as its on-log bytes (frame included) without writing it —
    the store buffers these and lands a whole write with one
    {!append_raw}. *)
val encode_record : lsn:int -> Update.op list -> string

(** Append pre-encoded record bytes (a concatenation of
    {!encode_record}s) in {e one} I/O operation — and so, on a durable
    {!Io.real} handle, one shared fsync for every record in the batch.
    Byte-equivalent to appending the records one at a time. *)
val append_raw : Io.t -> string -> string -> unit

(** Size in bytes of one logged transaction (frame included). *)
val record_size : Update.op list -> int

(** Reset to empty (log compaction after a checkpoint). *)
val reset : Io.t -> string -> unit

(** [truncate io path ~keep] atomically rewrites the log to its first
    [keep] bytes — recovery chops a damaged tail with this so later
    appends extend the valid prefix, not the garbage. *)
val truncate : Io.t -> string -> keep:int -> unit
