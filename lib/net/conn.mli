(** Framed messages over a stream socket.

    Each message is one {!Bounds_store.Frame} ([len][crc][payload]) —
    the same framing as the write-ahead log, so torn and corrupt input
    is classified by the same decoder.  Blocking; exceptions from the
    socket layer ([Unix.Unix_error], e.g. [EPIPE] on send to a closed
    peer) propagate to the caller. *)

(** [send_parts fd parts] writes one whole frame whose payload is the
    parts' concatenation (short writes retried).  The parts are copied
    once, into the frame: a daemon sends a response's verb line and
    body ({!Proto.response_parts}) without first joining them. *)
val send_parts : Unix.file_descr -> string list -> unit

(** [send fd payload] is [send_parts fd [payload]]. *)
val send : Unix.file_descr -> string -> unit

(** [recv fd] reads one whole frame — header and payload into one
    buffer, which {!Bounds_store.Frame.read} then checks.  [Ok None] is
    a clean close (end-of-stream before the first header byte); [Error]
    is a torn or corrupt frame (mid-frame close, oversize or negative
    length, CRC mismatch) — the connection is unusable after it. *)
val recv : Unix.file_descr -> (string option, string) result

(** {!recv} with a clean close folded into [Error "connection closed"] —
    for clients that expect a response. *)
val recv_or_error : Unix.file_descr -> (string, string) result

(** Largest accepted payload (64 MiB): a corrupt length field must not
    become a giant allocation. *)
val max_payload : int
