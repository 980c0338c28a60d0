type t = { mutable bytes : Bytes.t; mutable len : int }

let create n = { bytes = Bytes.create (max n 1); len = 0 }

let reserve t n =
  let need = t.len + n in
  let cap = Bytes.length t.bytes in
  if need > cap then begin
    let cap = ref (2 * cap) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.bytes 0 b 0 t.len;
    t.bytes <- b
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.bytes t.len c;
  t.len <- t.len + 1

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.unsafe_blit_string s 0 t.bytes t.len n;
  t.len <- t.len + n

let add_copy t off n =
  if off < 0 || n < 0 || off + n > t.len then invalid_arg "Outbuf.add_copy";
  reserve t n;
  Bytes.unsafe_blit t.bytes off t.bytes t.len n;
  t.len <- t.len + n

let contents t = Bytes.sub_string t.bytes 0 t.len
