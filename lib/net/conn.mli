(** Framed messages over a stream socket.

    Each message is one {!Bounds_store.Frame} ([len][crc][payload]) —
    the same framing as the write-ahead log, so torn and corrupt input
    is classified by the same decoder.  Blocking; exceptions from the
    socket layer ([Unix.Unix_error], e.g. [EPIPE] on send to a closed
    peer) propagate to the caller. *)

(** [send_parts fd parts] writes one whole frame whose payload is the
    parts' concatenation (short writes retried), built by
    {!Bounds_store.Frame.encode_parts}: the one-shot case of
    {!send_with}, for clients and for a refusal sent before a
    connection has a buffer. *)
val send_parts : Unix.file_descr -> string list -> unit

(** [send fd payload] is [send_parts fd [payload]]. *)
val send : Unix.file_descr -> string -> unit

(** A connection's reusable frame buffer: one 64 KiB block.  A frame
    whose payload does not fit is streamed through it ({!send_with}), so
    no reply makes the buffer grow; a single piece larger than the block
    does, and once its frame is sent the buffer is the 64 KiB block
    again. *)
type buffer

val buffer : unit -> buffer

(** The bytes [buffer] holds between frames. *)
val capacity : buffer -> int

(** [send_with b fd start] sends one frame through [b].  Its payload is
    produced by [fill = start ()]: each call appends a chunk to the
    buffer it is given ([b]'s own, the header's room before the first
    chunk, which [fill] must not touch) and says whether more follow; a
    chunk should end within the buffer's [Bytes.length].  When the first
    chunk is the whole payload, the header is sealed over it in place
    ({!Bounds_store.Frame.seal}) and the frame written with one call.
    Otherwise the frame is streamed: the chunks are produced once for
    the payload's length and CRC, which the header needs first, then
    again from a fresh [start ()] — which must produce the same bytes —
    and written chunk by chunk as they are rendered.  Either way the
    payload is never copied and the bytes are those of {!send_parts} of
    the same payload.  Short writes are retried. *)
val send_with : buffer -> Unix.file_descr -> (unit -> Bounds_model.Outbuf.t -> bool) -> unit

(** [send_parts_with b fd parts] is {!send_parts} through [b]. *)
val send_parts_with : buffer -> Unix.file_descr -> string list -> unit

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
