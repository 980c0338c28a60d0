(** The directory server: a wire-facing daemon over one durable
    {!Bounds_store.Store}.

    Reads (queries, scoped searches) run concurrently and lock-free
    against immutable {!Bounds_core.Directory.Snapshot} values —
    snapshot isolation, served by the shared {!Front} end.  Writes and
    checkpoints funnel through a single writer thread that commits
    every maximal run of queued transactions as one
    {!Bounds_store.Store.batch}: one WAL append, one shared fsync, and
    only then the acknowledgements — group commit.  A reply to [Apply]
    therefore means the transaction is durable (acknowledged ⊆
    recovered), and no reader ever observes a half-committed batch.

    With [replicate:true] the server is also a replication primary: a
    connection that says hello as a {!Proto.Replica} may [Subscribe],
    after which it receives a catch-up set (shipped records, or a
    bootstrap snapshot when its lsn predates the base checkpoint) and
    then every subsequently acknowledged record, in lsn order, as
    {!Proto.stream} messages.  Subscription grants run on the writer
    thread, serialized with commits, so the feed never gaps and never
    duplicates between catch-up and live shipment.

    The server owns the store while running: do not touch the store
    from outside between {!start} and {!wait}. *)

type t

(** [start store] binds, spawns the acceptor and writer threads, and
    returns immediately.  [host] defaults to ["127.0.0.1"], [port] to
    [0] (ephemeral — read it back with {!port}).  [batch_max] (default
    [64]) caps transactions per group commit; [max_clients] (default
    [64]) caps concurrent connections.  [replicate] (default [false])
    accepts replication subscribers and installs the store's ship hook
    for the feed. *)
val start :
  ?host:string ->
  ?port:int ->
  ?batch_max:int ->
  ?max_clients:int ->
  ?replicate:bool ->
  Bounds_store.Store.t ->
  t

(** The bound port (useful with [port:0]). *)
val port : t -> int

(** Ask the server to stop: in-flight requests finish, queued writes
    commit, connections (feeds included) drain.  Idempotent; also
    triggered by a [Shutdown] request from any client. *)
val stop : t -> unit

(** Block until the acceptor, writer and every handler thread have
    exited (call {!stop} first, or let a client send [Shutdown]). *)
val wait : t -> unit

type stats = {
  clients : int;  (** handler threads currently connected *)
  reads : int;
  writes_ok : int;
  writes_rejected : int;
  batches : int;  (** group commits (WAL appends) *)
  batched : int;  (** write transactions those commits carried *)
  max_batch : int;
  snapshots_retired : int;  (** snapshots superseded by a newer one *)
  lsn : int;  (** last durable log sequence number *)
  recovered : string;
      (** how recovery found this store's tail: ["fresh"] (born of
          [init] in this process), ["clean"], or the positioned
          truncation reasons of a {!Bounds_store.Store.Recovered_at} *)
  replicas : int;  (** live replication subscribers *)
  replica_lag : int;
      (** records not yet shipped to the slowest subscriber
          (lsn − min sent-lsn; [0] with no subscribers) *)
}

val stats : t -> stats
val stats_text : stats -> string

(** {1 Read evaluation}

    {!Front.serve_query} and {!Front.serve_search}: the per-snapshot
    read paths both daemons answer with. *)

val serve_query : Bounds_core.Directory.Snapshot.t -> string -> Proto.response

val serve_search :
  Bounds_core.Directory.Snapshot.t ->
  base:string option ->
  scope:string ->
  filter:string ->
  Proto.response
