(** The wire front end both daemons run: the listening socket, the
    acceptor with its connection cap, the registry of live connections,
    and the connection loop with its protocol-version gate and its read
    dispatch.

    One handler thread serves each connection.  It answers [Hello],
    [Ping], [Stats], [Shutdown], [Query] and [Search] itself, and hands
    every other request to its daemon's [handle].  Reads evaluate
    lock-free against the snapshot last {!publish}ed: a reader
    [Atomic.get]s it and holds it for one request, the writer swaps in
    a newer one, and the GC frees a superseded snapshot once no reader
    holds it. *)

type t

(** [listen ~host ~port ~max_clients] binds and listens ([port] [0] is
    ephemeral; read it back with {!port}), with [SO_REUSEADDR] and
    close-on-exec, and ignores SIGPIPE so that a peer dying mid-write
    surfaces as [EPIPE].  No thread runs until {!serve}.
    [max_clients] caps the live connections: the one past the cap is
    answered [server full] and closed. *)
val listen : host:string -> port:int -> max_clients:int -> t

val port : t -> int

(** Make [snap] the snapshot every later read evaluates against.
    Called by one writer thread at a time. *)
val publish : t -> Bounds_core.Directory.Snapshot.t -> unit

(** What a daemon's handler makes of a request the front end does not
    answer itself. *)
type outcome =
  | Reply of Proto.response  (** send it, then read the next request *)
  | Feed of Proto.response * (Unix.file_descr -> unit)
      (** send it, then hand the socket to the function; the connection
          closes when it returns *)

(** [serve t ~handle ~stats ~wake] starts the acceptor, which runs
    until {!stop}: a failed [accept] is retried, after a short pause
    when the process is out of descriptors.  [handle ~role]
    answers [Apply], [Checkpoint] and [Subscribe]; [role] is what the
    connection declared in its hello ([Reader] if it said none).
    [stats ()] is the [Stats] reply.  [wake ()] runs once, when the
    front end stops, to wake whatever of the daemon's own waits on
    the stop. *)
val serve :
  t ->
  handle:(role:Proto.role -> Proto.request -> outcome) ->
  stats:(unit -> string) ->
  wake:(unit -> unit) ->
  unit

(** Stop: shut down the listener and every live connection, then run
    [wake].  Idempotent; a [Shutdown] request calls it too. *)
val stop : t -> unit

(** Block until the acceptor and every handler thread have exited (call
    {!stop} first), then close the listener. *)
val wait : t -> unit

(** Live connections: the registry's size. *)
val clients : t -> int

(** Reads evaluated against a published snapshot. *)
val reads : t -> int

(** Snapshots superseded by a later {!publish}. *)
val retired : t -> int

(** {1 Read evaluation} *)

(** The reply to a [Query]: the count, then one DN per line. *)
val serve_query : Bounds_core.Directory.Snapshot.t -> string -> Proto.response

(** The reply to a [Search], listed as {!serve_query}'s. *)
val serve_search :
  Bounds_core.Directory.Snapshot.t ->
  base:string option ->
  scope:string ->
  filter:string ->
  Proto.response

(** The stats line on how a store recovered: ["fresh"] for [None] (a
    store born of [init] in this process), ["clean"] when the whole log
    replayed, else the log's positioned truncation reason. *)
val recovered_line : Bounds_store.Store.report option -> string
