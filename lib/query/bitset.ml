type t = { n : int; words : Bytes.t }

let nbytes n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Bytes.make (nbytes n) '\000' }

let length s = s.n

let full n =
  let s = { n; words = Bytes.make (nbytes n) '\255' } in
  (* clear the padding bits of the last byte *)
  let rem = n land 7 in
  if rem <> 0 && n > 0 then begin
    let last = nbytes n - 1 in
    Bytes.set s.words last (Char.chr ((1 lsl rem) - 1))
  end;
  s

let check_idx s i =
  if i < 0 || i >= s.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i s.n)

let mem s i =
  check_idx s i;
  Char.code (Bytes.get s.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set s i =
  check_idx s i;
  let b = i lsr 3 in
  Bytes.set s.words b (Char.chr (Char.code (Bytes.get s.words b) lor (1 lsl (i land 7))))

let unset s i =
  check_idx s i;
  let b = i lsr 3 in
  Bytes.set s.words b
    (Char.chr (Char.code (Bytes.get s.words b) land lnot (1 lsl (i land 7)) land 0xff))

let copy s = { n = s.n; words = Bytes.copy s.words }

let add s i =
  let s' = copy s in
  set s' i;
  s'

let remove s i =
  let s' = copy s in
  unset s' i;
  s'

let check_same a b =
  if a.n <> b.n then invalid_arg "Bitset: universe size mismatch"

(* The kernels below go 64 bits at a stride ([Bytes.get_int64_le] /
   [set_int64_le] — unaligned-safe, and the native compiler unboxes the
   Int64 locals), with a byte loop over the [length mod 8] tail.  The
   byte-at-a-time reference lives on in test_query's bit-identity
   properties. *)

let tail_start nb = nb land lnot 7

let map2_words f64 f8 a b =
  check_same a b;
  let r = create a.n in
  let nb = Bytes.length a.words in
  let t = tail_start nb in
  let o = ref 0 in
  while !o < t do
    Bytes.set_int64_le r.words !o
      (f64 (Bytes.get_int64_le a.words !o) (Bytes.get_int64_le b.words !o));
    o := !o + 8
  done;
  for k = t to nb - 1 do
    Bytes.set r.words k
      (Char.unsafe_chr
         (f8 (Char.code (Bytes.get a.words k)) (Char.code (Bytes.get b.words k))
         land 0xff))
  done;
  r

let union = map2_words Int64.logor (fun x y -> x lor y)
let inter = map2_words Int64.logand (fun x y -> x land y)

let diff =
  map2_words (fun x y -> Int64.logand x (Int64.lognot y)) (fun x y -> x land lnot y)

let union_into ~into src =
  check_same into src;
  let nb = Bytes.length into.words in
  let t = tail_start nb in
  let o = ref 0 in
  while !o < t do
    Bytes.set_int64_le into.words !o
      (Int64.logor (Bytes.get_int64_le into.words !o) (Bytes.get_int64_le src.words !o));
    o := !o + 8
  done;
  for k = t to nb - 1 do
    let c = Char.code (Bytes.get into.words k) lor Char.code (Bytes.get src.words k) in
    Bytes.set into.words k (Char.unsafe_chr c)
  done

let inter_into ~into src =
  check_same into src;
  let nb = Bytes.length into.words in
  let t = tail_start nb in
  let o = ref 0 in
  while !o < t do
    Bytes.set_int64_le into.words !o
      (Int64.logand (Bytes.get_int64_le into.words !o) (Bytes.get_int64_le src.words !o));
    o := !o + 8
  done;
  for k = t to nb - 1 do
    let c = Char.code (Bytes.get into.words k) land Char.code (Bytes.get src.words k) in
    Bytes.set into.words k (Char.unsafe_chr c)
  done

(* Bits [pos, pos+64) of [bytes] as one little-endian word, reading
   zeros past the end — the unaligned gather primitive of [splice]. *)
let get_bits64 bytes nb pos =
  let b = pos lsr 3 and sh = pos land 7 in
  let word ofs =
    if ofs >= nb then 0L
    else if ofs + 8 <= nb then Bytes.get_int64_le bytes ofs
    else begin
      let v = ref 0L in
      for k = nb - 1 downto ofs do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get bytes k)))
      done;
      !v
    end
  in
  if sh = 0 then word b
  else
    Int64.logor
      (Int64.shift_right_logical (word b) sh)
      (Int64.shift_left (word (b + 8)) (64 - sh))

let get_bits8 bytes nb pos =
  let b = pos lsr 3 and sh = pos land 7 in
  let byte ofs = if ofs >= nb then 0 else Char.code (Bytes.get bytes ofs) in
  if sh = 0 then byte b else ((byte b lsr sh) lor (byte (b + 1) lsl (8 - sh))) land 0xff

let splice ~at ~removed ~inserted s =
  if at < 0 || removed < 0 || inserted < 0 || at + removed > s.n then
    invalid_arg "Bitset.splice";
  let n' = s.n - removed + inserted in
  let r = create n' in
  (* head [0, at): byte blit plus a masked boundary byte *)
  let hb = at lsr 3 in
  Bytes.blit s.words 0 r.words 0 hb;
  let hrem = at land 7 in
  if hrem <> 0 then
    Bytes.set r.words hb
      (Char.unsafe_chr (Char.code (Bytes.get s.words hb) land ((1 lsl hrem) - 1)));
  (* tail: dst bits [at+inserted, n') := src bits [at+removed, n).  The
     inserted gap stays zero.  Walk bitwise to the next dst byte
     boundary, then gather unaligned 64-bit source windows into aligned
     destination words. *)
  let left = ref (s.n - at - removed) in
  if !left > 0 then begin
    let nbs = Bytes.length s.words in
    let d = ref (at + inserted) and sp = ref (at + removed) in
    while !left > 0 && !d land 7 <> 0 do
      if mem s !sp then set r !d;
      incr d;
      incr sp;
      decr left
    done;
    let db = ref (!d lsr 3) in
    while !left >= 64 do
      Bytes.set_int64_le r.words !db (get_bits64 s.words nbs !sp);
      db := !db + 8;
      sp := !sp + 64;
      left := !left - 64
    done;
    while !left >= 8 do
      Bytes.set r.words !db (Char.unsafe_chr (get_bits8 s.words nbs !sp));
      incr db;
      sp := !sp + 8;
      left := !left - 8
    done;
    d := !db lsl 3;
    while !left > 0 do
      if mem s !sp then set r !d;
      incr d;
      incr sp;
      decr left
    done
  end;
  r

let complement a =
  let r = diff (full a.n) a in
  r

let is_empty s =
  let nb = Bytes.length s.words in
  let t = tail_start nb in
  let rec words o =
    o >= t || (Bytes.get_int64_le s.words o = 0L && words (o + 8))
  in
  let rec bytes k =
    k >= nb || (Bytes.get s.words k = '\000' && bytes (k + 1))
  in
  words 0 && bytes t

let popcount_byte = Array.init 256 (fun i ->
    let rec go i acc = if i = 0 then acc else go (i lsr 1) (acc + (i land 1)) in
    go i 0)

(* SWAR popcount.  The masks exceed OCaml's native max_int (2^62 - 1), so
   the reduction has to run in Int64 arithmetic; the compiler keeps the
   intermediates unboxed.  Inlined, so the word read from [Bytes] is not
   boxed to cross a call either: [cardinal] allocates nothing, and every
   plan node counts its result with it. *)
let[@inline] popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let cardinal s =
  let nb = Bytes.length s.words in
  let t = tail_start nb in
  let acc = ref 0 in
  let o = ref 0 in
  while !o < t do
    acc := !acc + popcount64 (Bytes.get_int64_le s.words !o);
    o := !o + 8
  done;
  for k = t to nb - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get s.words k))
  done;
  !acc

let count = cardinal

let equal a b = a.n = b.n && Bytes.equal a.words b.words

(* a ⊆ b ⇔ every word of a land lnot b is zero — no scratch set. *)
let subset a b =
  check_same a b;
  let nb = Bytes.length a.words in
  let t = tail_start nb in
  let rec words o =
    o >= t
    || Int64.logand (Bytes.get_int64_le a.words o)
         (Int64.lognot (Bytes.get_int64_le b.words o))
       = 0L
       && words (o + 8)
  in
  let rec bytes k =
    k >= nb
    || Char.code (Bytes.get a.words k) land lnot (Char.code (Bytes.get b.words k))
       = 0
       && bytes (k + 1)
  in
  words 0 && bytes t

(* Members of [max lo 0, min hi n) in increasing order: skip all-zero
   64-bit words in one probe, then resolve nonzero words byte by byte, so
   sparse sets iterate in O(n/64 + touched bytes + |members|). *)
let iter_range f s ~lo ~hi =
  let lo = max lo 0 and hi = min hi s.n in
  if lo < hi then begin
    let b_lo = lo lsr 3 and b_hi = (hi - 1) lsr 3 in
    let byte b =
      let c = Char.code (Bytes.get s.words b) in
      if c <> 0 then begin
        let base = b lsl 3 in
        let first = if base >= lo then 0 else lo - base in
        let last = if base + 7 < hi then 7 else hi - 1 - base in
        for j = first to last do
          if c land (1 lsl j) <> 0 then f (base + j)
        done
      end
    in
    let b = ref b_lo in
    while !b <= b_hi do
      if !b + 7 <= b_hi then
        if Bytes.get_int64_le s.words !b = 0L then b := !b + 8
        else begin
          for k = !b to !b + 7 do
            byte k
          done;
          b := !b + 8
        end
      else begin
        byte !b;
        incr b
      end
    done
  end

let iter f s = iter_range f s ~lo:0 ~hi:s.n

(* Members in decreasing order, skipping all-zero 64-bit words; the
   padding bits past [n] are always clear. *)
let iter_rev f s =
  let b = ref (Bytes.length s.words - 1) in
  while !b >= 0 do
    if !b >= 7 && Bytes.get_int64_le s.words (!b - 7) = 0L then b := !b - 8
    else begin
      let c = Char.code (Bytes.get s.words !b) in
      if c <> 0 then
        for j = 7 downto 0 do
          if c land (1 lsl j) <> 0 then f ((!b lsl 3) + j)
        done;
      decr b
    end
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n l =
  let s = create n in
  List.iter (set s) l;
  s

let choose s =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements s)
