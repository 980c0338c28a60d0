(* --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

(* Slicing-by-8 over native ints: [tables] holds eight 256-entry tables
   back to back, table [k] at offset [k * 256].  Table 0 is the usual
   byte-at-a-time table; table [k] advances a byte's contribution by [k]
   further zero bytes, so one step folds eight input bytes with eight
   lookups.  The running CRC lives in an [int] (63 bits hold its 32), so
   nothing is allocated per byte. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* [crc] extended over [len] bytes of [b] from [off]: the register
   resumes from the post-inverted [crc], so [crc_extend 0l] is the CRC
   of those bytes alone and a CRC can be taken chunk by chunk. *)
let crc_extend crc b off len =
  let t = tables in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo = (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.(0x700 + (lo land 0xff))
      lxor t.(0x600 + ((lo lsr 8) land 0xff))
      lxor t.(0x500 + ((lo lsr 16) land 0xff))
      lxor t.(0x400 + (lo lsr 24))
      lxor t.(0x300 + (hi land 0xff))
      lxor t.(0x200 + ((hi lsr 8) land 0xff))
      lxor t.(0x100 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := (!c lsr 8) lxor t.((!c lxor Char.code (Bytes.get b !i)) land 0xff);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = crc_extend 0l (Bytes.unsafe_of_string s) 0 (String.length s)

(* --- framing ------------------------------------------------------------ *)

let header_size = 8

let write_header b len crc =
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 crc

let seal b len = write_header b len (crc_extend 0l b header_size len)

(* The payload is the parts' concatenation, copied once, straight into
   the frame, which is then sealed in place. *)
let encode_parts parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let b = Bytes.create (header_size + len) in
  ignore
    (List.fold_left
       (fun off p ->
         Bytes.blit_string p 0 b off (String.length p);
         off + String.length p)
       header_size parts);
  seal b len;
  Bytes.unsafe_to_string b

let encode payload = encode_parts [ payload ]

type read_result =
  | Record of { payload : string; next : int }
  | End
  | Torn of { offset : int; reason : string }

let read s off =
  let n = String.length s in
  if off = n then End
  else if off + header_size > n then
    Torn { offset = off; reason = "truncated frame header" }
  else
    let b = Bytes.unsafe_of_string s in
    let len = Int32.to_int (Bytes.get_int32_le b off) in
    let crc = Bytes.get_int32_le b (off + 4) in
    if len < 0 then Torn { offset = off; reason = "corrupt frame length" }
    else if off + header_size + len > n then
      Torn { offset = off; reason = "truncated frame payload" }
    else if crc_extend 0l b (off + header_size) len <> crc then
      Torn { offset = off; reason = "crc mismatch" }
    else
      Record
        { payload = String.sub s (off + header_size) len; next = off + header_size + len }
