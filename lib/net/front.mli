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
  | Feed of Proto.response * (Unix.file_descr -> Conn.buffer -> unit)
      (** send it, then hand the socket and the connection's frame
          buffer to the function; the connection closes when it
          returns *)

(** [serve t ~handle ~stats ~wake] starts the acceptor, which runs
    until {!stop}: a failed [accept] is retried, after a short pause
    when the process is out of descriptors.  Accepted connections send
    with [TCP_NODELAY], as a reply streamed through the connection's
    buffer takes several writes.  [handle ~role]
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

(** {1 Read evaluation}

    A read is evaluated to an {!answer}, which one renderer lists: the
    count, then one DN per line ({!Bounds_model.Instance.add_dns}).
    The connection loop renders it straight into the connection's frame
    buffer ({!send_answer}); {!serve_query} and {!serve_search} render
    it into a fresh buffer and return the body. *)

(** The entries a read lists, with the instance their DNs come from, or
    the message of its [Failed] reply. *)
type answer = (Bounds_model.Instance.t * Bounds_model.Entry.id list, string) result

val query_answer : Bounds_core.Directory.Snapshot.t -> string -> answer

val search_answer :
  Bounds_core.Directory.Snapshot.t ->
  base:string option ->
  scope:string ->
  filter:string ->
  answer

(** [send_answer b fd a] sends [a]'s response through the connection
    buffer [b], the listing rendered in place after the verb line: what
    the connection loop does with every [Query] and [Search].  The
    frame is byte for byte the framing of the matching {!serve_query}
    or {!serve_search} response. *)
val send_answer : Conn.buffer -> Unix.file_descr -> answer -> unit

(** The response to a [Query]: [Reply] of the listing. *)
val serve_query : Bounds_core.Directory.Snapshot.t -> string -> Proto.response

(** The response to a [Search], listed as {!serve_query}'s. *)
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
