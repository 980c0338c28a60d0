(* Framed messages over a stream socket: every message travels as one
   {!Bounds_store.Frame} — [len][crc][payload] — so the wire format and
   the write-ahead log share one framing (and one set of torn/corrupt
   classifications).  [recv] is total over what the peer sends:
   short reads, oversize lengths and CRC mismatches come back as
   [Error], a clean close as [Ok None]. *)

module Frame = Bounds_store.Frame
module Outbuf = Bounds_model.Outbuf

(* Refuse absurd frames before allocating: a corrupt or hostile length
   must not turn into a multi-gigabyte Bytes.create. *)
let max_payload = 64 * 1024 * 1024

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let send_parts fd parts =
  let framed = Bytes.unsafe_of_string (Frame.encode_parts parts) in
  write_all fd framed 0 (Bytes.length framed)

let send fd payload = send_parts fd [ payload ]

(* A connection's buffer is one block of this size.  A payload that
   does not fit is streamed through it rather than grown into a bigger
   one, and a chunk that outgrows it all the same (one piece larger
   than the block) is let go once the frame is sent. *)
let retained = 64 * 1024

type buffer = { out : Outbuf.t; home : Bytes.t }

let buffer () =
  let home = Bytes.create retained in
  { out = { Outbuf.bytes = home; len = 0 }; home }

let capacity b = Bytes.length b.out.bytes

(* The common case renders the payload after the header's room, seals
   the header over it in place and writes the frame with one call.  A
   payload still unfinished when the block is full is streamed: the
   header comes first on the wire but needs the whole payload's length
   and CRC, so the chunks are produced once for those, then again, from
   a fresh producer, to be written. *)
let send_with b fd start =
  let o = b.out in
  let fill = start () in
  o.len <- Frame.header_size;
  if fill o then begin
    let len = ref (o.len - Frame.header_size) in
    let crc = ref (Frame.crc_extend 0l o.bytes Frame.header_size !len) in
    let more = ref true in
    while !more do
      o.len <- 0;
      more := fill o;
      len := !len + o.len;
      crc := Frame.crc_extend !crc o.bytes 0 o.len
    done;
    let fill = start () in
    o.len <- Frame.header_size;
    let more = ref (fill o) in
    Frame.write_header o.bytes !len !crc;
    write_all fd o.bytes 0 o.len;
    while !more do
      o.len <- 0;
      more := fill o;
      write_all fd o.bytes 0 o.len
    done
  end
  else begin
    Frame.seal o.bytes (o.len - Frame.header_size);
    write_all fd o.bytes 0 o.len
  end;
  if o.bytes != b.home then o.bytes <- b.home

let send_parts_with b fd parts =
  send_with b fd (fun () o ->
      List.iter (Outbuf.add_string o) parts;
      false)

(* Fill [buf] from [off] to its end; [Ok false] iff the peer closed
   cleanly before the first byte of the whole buffer. *)
let read_into fd buf off =
  let len = Bytes.length buf in
  let rec go pos =
    if pos = len then Ok true
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 ->
          if pos = 0 then Ok false
          else Error (Printf.sprintf "connection closed mid-frame (%d/%d bytes)" pos len)
      | n -> go (pos + n)
  in
  go off

let recv fd =
  let header = Bytes.create Frame.header_size in
  match read_into fd header 0 with
  | Error _ as e -> e
  | Ok false -> Ok None
  | Ok true -> (
      let len = Int32.to_int (Bytes.get_int32_le header 0) in
      if len < 0 || len > max_payload then
        Error (Printf.sprintf "bad frame length %d" len)
      else
        (* header and payload land in one buffer, which the frame
           decoder checks, so wire and log corruption are classified by
           the same code *)
        let frame = Bytes.create (Frame.header_size + len) in
        Bytes.blit header 0 frame 0 Frame.header_size;
        match read_into fd frame Frame.header_size with
        | Error _ as e -> e
        | Ok _ -> (
            match Frame.read (Bytes.unsafe_to_string frame) 0 with
            | Frame.Record { payload; _ } -> Ok (Some payload)
            | Frame.Torn { reason; _ } -> Error reason
            | Frame.End -> Error "empty frame"))

let recv_or_error fd =
  match recv fd with
  | Ok (Some payload) -> Ok payload
  | Ok None -> Error "connection closed"
  | Error _ as e -> e
