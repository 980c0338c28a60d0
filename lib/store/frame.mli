(** CRC32-guarded, length-prefixed record framing.

    A frame is [len:u32le][crc:u32le][payload], where [crc] is the
    CRC-32 (IEEE 802.3) of the payload.  Framing is what turns "a file
    of bytes" into "a longest valid prefix of records": the decoder
    never raises on damaged input, it reports {e where} the valid
    prefix ends and why, so recovery can truncate there. *)

(** CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial and
    final value 0xFFFFFFFF) of [s].  Computed by slicing-by-8 — eight
    256-entry tables, eight bytes per step, the running value in a
    native [int], nothing allocated per byte — but the values are the
    standard ones, so stores, logs and streams written by earlier
    builds (byte-at-a-time) verify unchanged. *)
val crc32 : string -> int32

(** [crc_extend crc b off len] is the CRC of the bytes [crc] covers
    followed by the [len] bytes of [b] from [off]: [crc_extend 0l] is
    the CRC of those bytes alone, and
    [crc_extend (crc32 x) (Bytes.of_string y) 0 (String.length y)] is
    [crc32 (x ^ y)].  The one CRC loop behind every frame check. *)
val crc_extend : int32 -> Bytes.t -> int -> int -> int32

val header_size : int

(** [write_header b len crc] writes a frame header — the payload's
    length, then its CRC — into [b]'s first [header_size] bytes: the
    one header writer.  A connection streaming a frame too long for its
    buffer writes the header this way, from the length and CRC of its
    chunks. *)
val write_header : Bytes.t -> int -> int32 -> unit

(** [seal b len] writes the header of the frame whose [len]-byte payload
    already lies in [b] from [header_size]: the CRC of those bytes, in
    place, then {!write_header}.  The frame is then [b]'s first
    [header_size + len] bytes.  {!encode_parts} seals after copying the
    parts in, a connection after rendering a reply into its own
    buffer. *)
val seal : Bytes.t -> int -> unit

(** [encode_parts parts] is [encode (String.concat "" parts)] without
    the concatenation: the parts are copied once, straight into the
    frame, and the CRC is taken over that payload slice. *)
val encode_parts : string list -> string

(** One frame holding [payload]: the one-part case of {!encode_parts}. *)
val encode : string -> string

type read_result =
  | Record of { payload : string; next : int }
  | End  (** clean end of input at the offset given to [read] *)
  | Torn of { offset : int; reason : string }
      (** the bytes from [offset] on are not a whole valid frame:
          truncated header, truncated or over-long payload, corrupt
          length, or CRC mismatch *)

(** [read s off] decodes the frame starting at byte [off] of [s]. *)
val read : string -> int -> read_result
