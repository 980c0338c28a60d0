(** Binary codec for transactions: the one entry encoding of the store.

    A transaction is its log sequence number and its raw operation list,
    encoded {e structurally} (ids, rdns, class sets, typed values) so
    that replay reconstructs exactly the ops
    {!Bounds_core.Directory.apply} accepted — independently of the
    LDIF/value printers, which have their own round-trip oracles.  A WAL
    record, a shipped record and a checkpoint body are all such
    transactions; a checkpoint's is the one that inserts every entry of
    an instance into the empty one.

    The decoder is total: any malformed byte yields [Error] with an
    offset-positioned message, never an exception — a frame whose CRC
    matches but whose payload fails here is still just a damaged tail
    to truncate at. *)

open Bounds_model

val encode_txn : lsn:int -> Update.op list -> string

(** [encode_inserts ~lsn inst] is [encode_txn ~lsn ops] where [ops]
    inserts every entry of [inst] under its parent, in
    {!Instance.iter_preorder} order (parents first, siblings in
    insertion order), written straight from the walk: no op list is
    built.  Applying those ops to {!Instance.empty} rebuilds [inst]
    with the same ids and the same sibling order. *)
val encode_inserts : lsn:int -> Instance.t -> string

(** The one decoding loop.  [fold_txn s ~off ~start step] decodes the
    transaction that occupies [s] from byte [off] to its end, one op at
    a time, without copying the bytes or building an op list:
    [start ~lsn ~count] sees the transaction's lsn and op count and
    gives the first accumulator, then [step acc op] folds each op in
    order.  Either may refuse with [Error m], which ends the fold with
    [Error] naming the offset in [s] of the header or of that op.  With
    [typing], a value whose type is not its attribute's under [typing]
    ({!Value.has_type}) is an error too.  Offsets count from the start
    of [s]. *)
val fold_txn :
  ?typing:Typing.t ->
  string ->
  off:int ->
  start:(lsn:int -> count:int -> ('a, string) result) ->
  ('a -> Update.op -> ('a, string) result) ->
  ('a, string) result

(** {!fold_txn}'s list case, over the whole of [s]: the lsn and the
    ops. *)
val decode_txn : string -> (int * Update.op list, string) result
