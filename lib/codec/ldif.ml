open Bounds_model

type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message
let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

exception Err of error

let err line fmt = Printf.ksprintf (fun message -> raise (Err { line; message })) fmt

(* --- minimal base64 ------------------------------------------------- *)

let b64_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_decode_char ~at c =
  match String.index_opt b64_alphabet c with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "invalid base64 character %C at offset %d" c at)

let b64_decode s =
  (* no whitespace tolerance: LDIF line folding is undone before the
     base64 text ever reaches us, so embedded newlines are corruption *)
  let n = String.length s in
  if n mod 4 <> 0 then invalid_arg "base64 length not a multiple of 4";
  (* '=' is padding, legal only as the final one or two bytes; anywhere
     else it silently truncated data before being rejected here *)
  String.iteri
    (fun i c ->
      if c = '=' && i < n - 2 then
        invalid_arg (Printf.sprintf "stray base64 padding '=' at offset %d" i))
    s;
  if n >= 2 && s.[n - 2] = '=' && s.[n - 1] <> '=' then
    invalid_arg (Printf.sprintf "stray base64 padding '=' at offset %d" (n - 2));
  let buf = Buffer.create (n * 3 / 4) in
  let i = ref 0 in
  while !i < n do
    let c0 = s.[!i] and c1 = s.[!i + 1] and c2 = s.[!i + 2] and c3 = s.[!i + 3] in
    let v0 = b64_decode_char ~at:!i c0 and v1 = b64_decode_char ~at:(!i + 1) c1 in
    Buffer.add_char buf (Char.chr ((v0 lsl 2) lor (v1 lsr 4)));
    if c2 <> '=' then begin
      let v2 = b64_decode_char ~at:(!i + 2) c2 in
      Buffer.add_char buf (Char.chr (((v1 land 0xf) lsl 4) lor (v2 lsr 2)));
      if c3 <> '=' then begin
        let v3 = b64_decode_char ~at:(!i + 3) c3 in
        Buffer.add_char buf (Char.chr (((v2 land 0x3) lsl 6) lor v3))
      end
    end;
    i := !i + 4
  done;
  Buffer.contents buf

let b64_encode s =
  let buf = Buffer.create ((String.length s + 2) / 3 * 4) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let b0 = Char.code s.[!i] in
    let b1 = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    let b2 = if !i + 2 < n then Char.code s.[!i + 2] else 0 in
    Buffer.add_char buf b64_alphabet.[b0 lsr 2];
    Buffer.add_char buf b64_alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
    if !i + 1 < n then
      Buffer.add_char buf b64_alphabet.[((b1 land 0xf) lsl 2) lor (b2 lsr 6)]
    else Buffer.add_char buf '=';
    if !i + 2 < n then Buffer.add_char buf b64_alphabet.[b2 land 0x3f]
    else Buffer.add_char buf '=';
    i := !i + 3
  done;
  Buffer.contents buf

(* --- reading --------------------------------------------------------- *)

let split_attr_line line body =
  match String.index_opt body ':' with
  | None -> err line "expected 'attr: value', got %S" body
  | Some i ->
      let attr = String.sub body 0 i in
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      if String.length rest > 0 && rest.[0] = ':' then
        (* base64 text itself is whitespace-insensitive; the decoded bytes
           carry any significant whitespace *)
        let raw = String.trim (String.sub rest 1 (String.length rest - 1)) in
        let decoded = try b64_decode raw with Invalid_argument m -> err line "%s" m in
        (attr, decoded)
      else
        (* RFC 2849: exactly one optional space separates ':' from the
           value; anything beyond it — including trailing whitespace — is
           value content (the writer base64-encodes values that need it) *)
        let value =
          if String.length rest > 0 && rest.[0] = ' ' then
            String.sub rest 1 (String.length rest - 1)
          else rest
        in
        (attr, value)

let norm_dn d =
  String.split_on_char ',' d |> List.map (fun p -> String.lowercase_ascii (String.trim p))
  |> String.concat ","

let parent_dn d =
  match String.index_opt d ',' with
  | None -> None
  | Some i -> Some (String.sub d (i + 1) (String.length d - i - 1))

let first_rdn d =
  match String.index_opt d ',' with
  | None -> String.trim d
  | Some i -> String.trim (String.sub d 0 i)

(* The reader is one streaming pass: physical lines are folded into
   logical lines, logical lines are grouped into records, and each
   finished record becomes one entry handed to the caller — O(record)
   memory over the input, which is what lets a checkpoint load stream a
   large body without materializing line or record lists. *)
let fold_entries ?id_of ~typing f init s =
  let len = String.length s in
  let by_dn = Hashtbl.create 64 in
  let ordinal = ref 0 in
  let acc = ref init in
  (* record under assembly: dn line number, dn, pairs in reverse *)
  let rec_line = ref 0 in
  let rec_dn = ref None in
  let rec_pairs = ref [] in
  let finish_record () =
    match !rec_dn with
    | None -> ()
    | Some dn ->
        let line = !rec_line and pairs = List.rev !rec_pairs in
        rec_dn := None;
        rec_pairs := [];
        let classes, attr_pairs =
          List.fold_left
            (fun (classes, pairs) (attr_raw, value_raw) ->
              match Attr.of_string_opt attr_raw with
              | None -> err line "invalid attribute name %S" attr_raw
              | Some a ->
                  if Attr.equal a Attr.object_class then
                    match Oclass.of_string_opt value_raw with
                    | Some c -> (Oclass.Set.add c classes, pairs)
                    | None -> err line "invalid object class name %S" value_raw
                  else
                    let ty = Typing.find typing a in
                    (match Value.parse ty value_raw with
                    | Ok v -> (classes, (a, v) :: pairs)
                    | Error m -> err line "attribute %s: %s" (Attr.to_string a) m))
            (Oclass.Set.empty, []) pairs
        in
        if Oclass.Set.is_empty classes then
          err line "entry %s has no objectClass" dn;
        let id = match id_of with Some f -> f !ordinal | None -> !ordinal in
        incr ordinal;
        let entry = Entry.make ~id ~rdn:(first_rdn dn) ~classes (List.rev attr_pairs) in
        let parent =
          match parent_dn dn with
          | None -> None
          | Some pd -> (
              match Hashtbl.find_opt by_dn (norm_dn pd) with
              | Some pid -> Some pid
              | None -> err line "parent entry %S not yet defined" pd)
        in
        Hashtbl.replace by_dn (norm_dn dn) id;
        (match f ~parent entry !acc with
        | Ok a -> acc := a
        | Error m -> err line "%s" m)
  in
  let dispatch line body =
    let attr, value = split_attr_line line body in
    match !rec_dn with
    | None ->
        if String.lowercase_ascii (String.trim attr) <> "dn" then
          err line "record must start with 'dn:', got %S" body;
        rec_line := line;
        rec_dn := Some value
    | Some _ -> rec_pairs := (attr, value) :: !rec_pairs
  in
  let pending = ref None in
  let flush_pending () =
    match !pending with
    | None -> ()
    | Some (n, body) ->
        pending := None;
        dispatch n body
  in
  let lineno = ref 0 in
  let handle l =
    let l =
      let n = String.length l in
      if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
    in
    if String.length l > 0 && l.[0] = ' ' then
      (* continuation of the pending logical line (or a dropped comment) *)
      match !pending with
      | Some (n, body) ->
          pending := Some (n, body ^ String.sub l 1 (String.length l - 1))
      | None -> ()
    else begin
      flush_pending ();
      if l = "" then finish_record ()
      else if l.[0] = '#' then ()
      else pending := Some (!lineno, l)
    end
  in
  let rec lines pos =
    incr lineno;
    match if pos >= len then None else String.index_from_opt s pos '\n' with
    | Some j ->
        handle (String.sub s pos (j - pos));
        lines (j + 1)
    | None -> handle (String.sub s pos (len - pos))
  in
  try
    lines 0;
    flush_pending ();
    finish_record ();
    Ok !acc
  with Err e -> Error e

let parse ?(first_id = 0) ~typing s =
  fold_entries
    ~id_of:(fun k -> first_id + k)
    ~typing
    (fun ~parent e inst ->
      Result.map_error Instance.error_to_string (Instance.add ~parent e inst))
    Instance.empty s

let parse_exn ?first_id ~typing s =
  match parse ?first_id ~typing s with
  | Ok inst -> inst
  | Error e -> failwith (error_to_string e)

(* --- writing --------------------------------------------------------- *)

(* RFC 2849 SAFE-STRING: printable ASCII, not starting with space, ':' or
   '<' — and not {e ending} with space either, which the one-separator
   reader could not tell apart from the separator's own padding. *)
let safe_value v =
  v = ""
  || (String.for_all (fun c -> Char.code c >= 0x20 && Char.code c < 0x7f) v
     && v.[0] <> ' ' && v.[0] <> ':' && v.[0] <> '<'
     && v.[String.length v - 1] <> ' ')

let to_string inst =
  let buf = Buffer.create 1024 in
  let line a sep v =
    Buffer.add_string buf a;
    Buffer.add_string buf sep;
    Buffer.add_string buf v;
    Buffer.add_char buf '\n'
  in
  let emit_pair a v =
    let raw = Value.to_string v in
    if safe_value raw then line a ": " raw else line a ":: " (b64_encode raw)
  in
  Instance.iter_preorder_dn
    (fun ~dn e ->
      line "dn" ": " dn;
      Oclass.Set.iter
        (fun c -> line "objectClass" ": " (Oclass.to_string c))
        (Entry.classes e);
      List.iter (fun (a, v) -> emit_pair (Attr.to_string a) v) (Entry.stored_pairs e);
      Buffer.add_char buf '\n')
    inst;
  Buffer.contents buf

let pp ppf inst = Format.pp_print_string ppf (to_string inst)

(* --- change records --------------------------------------------------- *)

(* LDIF change records against an existing instance: each record is
   `dn:` plus either `changetype: add` (the default) with the entry's
   attribute lines, or `changetype: delete`.  DNs resolve first against
   the adds already built — an add may parent later adds of the same
   document — then against [inst] through {!Instance.resolve_dn}, the
   resolver searches use, so only the document's own adds are ever
   tabled.  Fresh ids are assigned past the instance's; the ops are
   ready for Directory.apply / Store.apply.
   Shared by the CLI `update` verb and the network server's write path
   (where the server resolves at admission time, against the version
   the transaction will actually apply to). *)
let parse_changes ~typing inst text =
  let records =
    String.split_on_char '\n' text
    |> List.fold_left
         (fun (recs, cur) line ->
           let line = String.trim line in
           if line = "" then
             match cur with [] -> (recs, []) | c -> (List.rev c :: recs, [])
           else if String.length line > 0 && line.[0] = '#' then (recs, cur)
           else (recs, line :: cur))
         ([], [])
    |> fun (recs, cur) ->
    List.rev (match cur with [] -> recs | c -> List.rev c :: recs)
  in
  let next_id = ref (Instance.fresh_id inst) in
  let added = Hashtbl.create 16 in
  let resolve dn =
    match Hashtbl.find_opt added (norm_dn dn) with
    | Some id -> Ok id
    | None -> (
        match Instance.resolve_dn inst dn with
        | Some id -> Ok id
        | None -> Error (Printf.sprintf "unknown dn %S" dn))
  in
  let split line =
    match String.index_opt line ':' with
    | Some i ->
        Ok
          ( String.trim (String.sub line 0 i),
            String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> Error (Printf.sprintf "malformed line %S" line)
  in
  let ( let* ) = Result.bind in
  let rec build ops = function
    | [] -> Ok (List.rev ops)
    | record :: rest -> (
        match record with
        | [] -> build ops rest
        | dn_line :: body ->
            let* k, dn = split dn_line in
            if String.lowercase_ascii k <> "dn" then
              Error (Printf.sprintf "record must start with dn:, got %S" dn_line)
            else
              let changetype, attrs =
                match body with
                | l :: more
                  when String.lowercase_ascii l |> fun s ->
                       String.length s >= 10 && String.sub s 0 10 = "changetype"
                  ->
                    ( String.trim
                        (String.sub l
                           (String.index l ':' + 1)
                           (String.length l - String.index l ':' - 1)),
                      more )
                | _ -> ("add", body)
              in
              (match String.lowercase_ascii changetype with
              | "delete" ->
                  let* id = resolve dn in
                  build (Update.Delete id :: ops) rest
              | "add" ->
                  let* parent =
                    match parent_dn dn with
                    | None -> Ok None
                    | Some p ->
                        let* pid = resolve p in
                        Ok (Some pid)
                  in
                  let rdn = first_rdn dn in
                  let* classes, pairs =
                    List.fold_left
                      (fun acc line ->
                        let* classes, pairs = acc in
                        let* k, v = split line in
                        match Attr.of_string_opt k with
                        | None -> Error (Printf.sprintf "bad attribute %S" k)
                        | Some a ->
                            if Attr.equal a Attr.object_class then
                              match Oclass.of_string_opt v with
                              | Some cls -> Ok (cls :: classes, pairs)
                              | None -> Error (Printf.sprintf "bad class %S" v)
                            else
                              let* value = Value.parse (Typing.find typing a) v in
                              Ok (classes, (a, value) :: pairs))
                      (Ok ([], []))
                      attrs
                  in
                  if classes = [] then
                    Error (Printf.sprintf "%s: no objectClass" dn)
                  else begin
                    let id = !next_id in
                    incr next_id;
                    Hashtbl.replace added (norm_dn dn) id;
                    let entry =
                      Entry.make ~id ~rdn
                        ~classes:(Oclass.Set.of_list classes)
                        (List.rev pairs)
                    in
                    build (Update.Insert { parent; entry } :: ops) rest
                  end
              | other -> Error (Printf.sprintf "unsupported changetype %S" other)))
  in
  build [] records
