(** Wire protocol of the directory server.

    One request or response per {!Conn} frame; payloads are a small
    line-oriented text (verb first, operands after), so a session is
    inspectable with nothing fancier than a frame decoder.  Operand
    lines of [Search] (scope, base) must be newline-free; the trailing
    operand of [Query]/[Apply]/[Search] is the {e rest} of the payload
    and may span lines (LDIF change records do).

    Decoding is total: malformed payloads return [Error], never raise —
    the round-trip law [decode (encode r) = Ok r] holds for every value
    whose line-bound operands are newline-free, and is property-tested
    in [test_net].

    Replication rides the same framing: a subscriber sends {!Hello}
    and {!Subscribe} as ordinary requests, after which the server turns
    the connection into a one-way feed of {!stream} messages.  Shipped
    records reuse the {!Bounds_store.Codec} transaction encoding that
    sits in the WAL — wire and log share one byte format, so the frame
    CRC that vouches for a logged record vouches for a shipped one. *)

open Bounds_model

(** Protocol version, compared in the {!Hello} handshake.  Mismatched
    peers fail fast with [Failed] instead of mis-decoding each other. *)
val version : int

(** What the connecting peer intends to be: a [Reader] issues
    request/response traffic; a [Replica] will {!Subscribe} to the
    replication feed (only honoured by a primary serving with
    replication enabled). *)
type role = Reader | Replica

type request =
  | Ping
  | Query of string
      (** hierarchical selection query, as the query parser reads it *)
  | Search of { base : string option; scope : string; filter : string }
      (** LDAP-style scoped search; [base = None] means the whole
          forest *)
  | Apply of string
      (** one write transaction: LDIF change records, resolved and
          admitted atomically by the writer at commit time *)
  | Stats
  | Checkpoint  (** compact the store (serialized with commits) *)
  | Shutdown  (** stop the daemon once in-flight work drains *)
  | Hello of { version : int; role : role }
      (** handshake: declare protocol version and role; the server
          replies [Failed] on a version mismatch and the client must
          drop the connection *)
  | Subscribe of { from_lsn : int }
      (** enter the replication feed, starting after [from_lsn] ([-1]
          for everything, forcing a {!Boot} bootstrap) *)

type response = Reply of string | Failed of string

(** One message on the replication feed (server → subscriber only). *)
type stream =
  | Ship of { lsn : int; ops : Update.op list }
      (** an acknowledged record, in lsn order *)
  | Mark of { lsn : int }
      (** the primary compacted at [lsn]; replicas may fold their own
          logs on the same beat *)
  | Boot of { lsn : int; schema : string; checkpoint : string }
      (** bootstrap package for a subscriber the logs can no longer
          catch up (its lsn predates the primary's base checkpoint) *)

val encode_request : request -> string
val decode_request : string -> (request, string) result

(** A response as the parts of its payload: the verb line, then the
    body.  Daemons copy these straight into a frame ({!Conn}), without
    first joining them; {!encode_response} is their concatenation, so
    both give the same bytes on the wire. *)
val response_parts : response -> string list

(** The verb line of a {!Reply}: [response_parts (Reply body)] is
    [[reply_line; body]].  A served listing is rendered straight into
    its frame after it. *)
val reply_line : string

val encode_response : response -> string
val decode_response : string -> (response, string) result

(** A feed message as the parts of its payload (verb line, then body;
    a {!Boot}'s schema and checkpoint stay separate parts), sent by
    parts as responses are; {!encode_stream} is their concatenation. *)
val stream_parts : stream -> string list

val encode_stream : stream -> string
val decode_stream : string -> (stream, string) result

(** The verb keyword, for logs and counters. *)
val request_verb : request -> string
