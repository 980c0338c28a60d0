(** Snapshot checkpoints.

    A checkpoint is one {!Frame}-wrapped blob: a short text header
    (the format tag [bounds-store checkpoint v2], the log sequence
    number, the entry count and the session statistics, ended by a
    blank line), then a body that is the {!Codec} transaction inserting
    every entry, in preorder, into the empty instance, at the header's
    lsn.  The body names entries by id, as the log does, and lists each
    parent's children in the order they were added, so a load rebuilds
    the same ids and the same preorder ranks.

    Writes go through a temporary file and an atomic rename, so the
    previous checkpoint survives any crash during compaction. *)

open Bounds_model

type meta = {
  lsn : int;  (** every logged record with lsn ≤ this is already folded in *)
  entries : int;
  applied : int;
  rejected : int;
  queries : int;
}

val write : Io.t -> string -> meta -> Instance.t -> unit

(** Header only — enough for [ldapschema log] to describe a store
    without decoding the instance.  A checkpoint of any other format
    (an older build's [v1] among them) is [Error] naming its tag. *)
val read_meta : Io.t -> string -> (meta, string) result

(** Full load: the body folds op by op through {!Codec.fold_txn} into
    {!Instance.empty} with {!Update.apply_op}, as recovery folds the
    log.  Besides {!read_meta}'s errors, [Error] with the byte offset
    (counted from the start of the frame's payload) of a body that is
    damaged, that holds an op other than an insert or an insert under
    a parent not read yet, whose lsn or entry count is not the
    header's, or that holds a value whose type is not its attribute's
    under [typing].  Never raises. *)
val read : Io.t -> string -> typing:Typing.t -> (meta * Instance.t, string) result
