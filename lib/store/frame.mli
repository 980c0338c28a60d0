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

val header_size : int

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
