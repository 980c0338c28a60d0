(** Blocking client for the directory server.

    One connection, one request/response in flight at a time; not
    thread-safe — give each thread its own client.  Transport failures
    (refused connection, dying server, torn frame) come back as
    [Error], never an exception. *)

type t

(** [connect ~port ()] opens a connection.  [host] defaults to
    ["127.0.0.1"]; [retries] (default [0]) re-attempts a refused
    connection after a short pause — for racing a daemon that is still
    binding.  Unless [hello:false], the client performs the version
    handshake ({!Proto.Hello}, [role] defaulting to {!Proto.Reader})
    before returning, so a protocol mismatch surfaces here as [Error]
    rather than as garbled traffic later. *)
val connect :
  ?host:string ->
  port:int ->
  ?retries:int ->
  ?hello:bool ->
  ?role:Proto.role ->
  unit ->
  (t, string) result

(** [request t req] sends one request and blocks for its response.
    [Error] means the exchange failed (transport or framing); a
    server-side failure is [Ok (Failed _)]. *)
val request : t -> Proto.request -> (Proto.response, string) result

(** {!request}, with transport failure raised as [Failure]. *)
val request_exn : t -> Proto.request -> Proto.response

(** The connection's socket, for a caller that takes the stream over
    after its last request — a replica reads its feed's frames from
    it, and shuts it down to wake that read. *)
val fd : t -> Unix.file_descr

val close : t -> unit
