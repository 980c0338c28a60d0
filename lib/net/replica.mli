(** The replica daemon: a read-only directory server fed by WAL
    shipment from a primary ({!Server} started with [replicate:true]).

    The feeder thread subscribes from the replica's last durable lsn
    and applies every shipped record through the trusted replay path —
    admission happened when the primary acknowledged the record
    (Theorem 4.1's admission-at-acknowledge argument), so the replica
    only re-checks the frame CRC, not legality.  Each applied record
    publishes a fresh immutable snapshot; queries and searches are
    served lock-free against it by the same {!Front} end as the
    primary's, and every write request is answered [read-only
    replica].

    Fault behaviour: a dropped or refused connection reconnects with
    exponential {!backoff}, resuming from the durable lsn — shipment
    overlap is skipped by the lsn discipline, never re-applied.  An lsn
    gap, an unappliable record, or a subscription the primary's logs
    can no longer serve forces a bootstrap: the primary ships a
    snapshot package which {!Bounds_store.Store.install_snapshot}
    writes as a fresh store.  A protocol version mismatch is fatal (no
    amount of retrying heals it) and is surfaced through {!stats}. *)

type t

(** Reconnect delay before attempt [n] (0-based): [0.05 · 2ⁿ] seconds,
    capped at 2 s.  Pure — the deterministic tests check the schedule
    without a clock. *)
val backoff : attempt:int -> float

(** [start ~primary_port io] opens (or awaits) the replica store under
    [io], binds the read-side listener, and spawns the feeder and
    acceptor threads.  [host]/[port] are the read side's (defaults
    ["127.0.0.1"]/ephemeral); [max_clients] (default [16]) caps
    concurrent read connections; [primary_host]:[primary_port] locate the
    primary's feed.  [sleep] replaces the reconnect pause (default
    real, interruptible sleeping) — inject a recorder for
    deterministic backoff tests.  A store already under [io] is
    recovered and served immediately, before the primary is even
    reachable. *)
val start :
  ?host:string ->
  ?port:int ->
  ?max_clients:int ->
  ?sleep:(float -> unit) ->
  ?primary_host:string ->
  primary_port:int ->
  Bounds_store.Io.t ->
  t

(** The read side's bound port (useful with [port:0]). *)
val port : t -> int

(** Stop feeding and serving; idempotent.  Also triggered by a
    [Shutdown] request on the read side. *)
val stop : t -> unit

(** Block until the feeder, acceptor and every handler have exited
    (call {!stop} first); closes the replica store. *)
val wait : t -> unit

type stats = {
  clients : int;  (** read connections currently served *)
  reads : int;
  applied_lsn : int;  (** last lsn applied to the replica's store *)
  shipped_lsn : int;
      (** last lsn seen on the feed — replication lag is
          [shipped_lsn − applied_lsn] *)
  connected : bool;  (** a subscription is live right now *)
  reconnects : int;  (** connections lost or refused since start *)
  boots : int;  (** snapshot bootstraps installed *)
  recovered : string;  (** how the replica's own store recovered *)
  last_error : string;  (** most recent feed failure ([""] if none) *)
  snapshots_retired : int;  (** snapshots superseded by a newer one *)
}

val stats : t -> stats
val stats_text : stats -> string
