open Bounds_model

(* All integers are fixed-width little-endian: WAL records are small and
   short-lived in memory, so simplicity beats varint compactness. *)

(* --- writer ------------------------------------------------------------- *)

let put_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_str buf s =
  Buffer.add_int32_le buf (Int32.of_int (String.length s));
  Buffer.add_string buf s

let put_value buf = function
  | Value.String s ->
      Buffer.add_char buf '\000';
      put_str buf s
  | Value.Int n ->
      Buffer.add_char buf '\001';
      put_i64 buf n
  | Value.Bool b ->
      Buffer.add_char buf '\002';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Dn d ->
      Buffer.add_char buf '\003';
      put_str buf d

let put_entry buf e =
  put_i64 buf (Entry.id e);
  put_str buf (Entry.rdn e);
  let classes = Oclass.Set.elements (Entry.classes e) in
  Buffer.add_int32_le buf (Int32.of_int (List.length classes));
  List.iter (fun c -> put_str buf (Oclass.to_string c)) classes;
  let pairs = Entry.stored_pairs e in
  Buffer.add_int32_le buf (Int32.of_int (List.length pairs));
  List.iter
    (fun (a, v) ->
      put_str buf (Attr.to_string a);
      put_value buf v)
    pairs

let put_insert buf parent entry =
  Buffer.add_char buf '\000';
  (match parent with
  | None -> Buffer.add_char buf '\000'
  | Some p ->
      Buffer.add_char buf '\001';
      put_i64 buf p);
  put_entry buf entry

let put_op buf = function
  | Update.Insert { parent; entry } -> put_insert buf parent entry
  | Update.Delete id ->
      Buffer.add_char buf '\001';
      put_i64 buf id

(* A transaction is its lsn, its op count, then the ops. *)
let encode ~lsn ~count put_ops =
  let buf = Buffer.create 256 in
  put_i64 buf lsn;
  Buffer.add_int32_le buf (Int32.of_int count);
  put_ops buf;
  Buffer.contents buf

let encode_txn ~lsn ops =
  encode ~lsn ~count:(List.length ops) (fun buf -> List.iter (put_op buf) ops)

let encode_inserts ~lsn inst =
  encode ~lsn ~count:(Instance.size inst) (fun buf ->
      Instance.iter_preorder
        (fun ~depth:_ e -> put_insert buf (Instance.parent inst (Entry.id e)) e)
        inst)

(* --- reader ------------------------------------------------------------- *)

exception Bad of string

let bad pos fmt = Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "byte %d: %s" pos m))) fmt

type cursor = { s : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.s then
    bad c.pos "truncated payload (need %d bytes, have %d)" n
      (String.length c.s - c.pos)

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string c.s) c.pos) in
  c.pos <- c.pos + 8;
  v

let get_count c what =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string c.s) c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 || v > String.length c.s then bad (c.pos - 4) "corrupt %s count %d" what v;
  v

let get_str c =
  let n = get_count c "string" in
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let get_value c =
  let at = c.pos in
  match get_u8 c with
  | 0 -> Value.String (get_str c)
  | 1 -> Value.Int (get_i64 c)
  | 2 -> Value.Bool (get_u8 c <> 0)
  | 3 -> Value.Dn (get_str c)
  | t -> bad at "unknown value tag %d" t

let get_entry typing c =
  let id = get_i64 c in
  let rdn = get_str c in
  let n_classes = get_count c "class" in
  let classes = ref Oclass.Set.empty in
  for _ = 1 to n_classes do
    let at = c.pos in
    let name = get_str c in
    match Oclass.of_string_opt name with
    | Some cls -> classes := Oclass.Set.add cls !classes
    | None -> bad at "invalid class name %S" name
  done;
  let n_pairs = get_count c "pair" in
  let pairs = ref [] in
  for _ = 1 to n_pairs do
    let at = c.pos in
    let name = get_str c in
    match Attr.of_string_opt name with
    | None -> bad at "invalid attribute name %S" name
    | Some a ->
        let v = get_value c in
        (match typing with
        | Some typing when not (Value.has_type (Typing.find typing a) v) ->
            bad at "attribute %s: value is not of type %s" name
              (Atype.to_string (Typing.find typing a))
        | _ -> ());
        pairs := (a, v) :: !pairs
  done;
  try Entry.make ~id ~rdn ~classes:!classes (List.rev !pairs)
  with Invalid_argument m -> bad c.pos "malformed entry: %s" m

let get_op typing c =
  let at = c.pos in
  match get_u8 c with
  | 0 ->
      let parent =
        let at = c.pos in
        match get_u8 c with
        | 0 -> None
        | 1 -> Some (get_i64 c)
        | t -> bad at "unknown parent tag %d" t
      in
      Update.Insert { parent; entry = get_entry typing c }
  | 1 -> Update.Delete (get_i64 c)
  | t -> bad at "unknown op tag %d" t

(* The one decoding loop: a log record, a shipped record and a
   checkpoint body all come through here, one op at a time. *)
let fold_txn ?typing s ~off ~start step =
  let c = { s; pos = off } in
  let ok at = function Ok v -> v | Error m -> bad at "%s" m in
  try
    let lsn = get_i64 c in
    if lsn < 0 then bad off "corrupt lsn %d" lsn;
    let count = get_count c "op" in
    let acc = ref (ok off (start ~lsn ~count)) in
    for _ = 1 to count do
      let at = c.pos in
      acc := ok at (step !acc (get_op typing c))
    done;
    if c.pos <> String.length s then
      bad c.pos "%d trailing bytes" (String.length s - c.pos);
    Ok !acc
  with Bad m -> Error m

let decode_txn s =
  fold_txn s ~off:0
    ~start:(fun ~lsn ~count:_ -> Ok (lsn, []))
    (fun (lsn, ops) op -> Ok (lsn, op :: ops))
  |> Result.map (fun (lsn, ops) -> (lsn, List.rev ops))
