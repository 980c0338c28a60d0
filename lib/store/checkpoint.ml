open Bounds_model

type meta = {
  lsn : int;
  entries : int;
  applied : int;
  rejected : int;
  queries : int;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
}

let format_tag = "bounds-store checkpoint v1"

let write io path meta inst =
  let ids = ref [] in
  Instance.iter_preorder (fun ~depth:_ e -> ids := Entry.id e :: !ids) inst;
  let ids = List.rev !ids in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (format_tag ^ "\n");
  Buffer.add_string buf (Printf.sprintf "lsn: %d\n" meta.lsn);
  Buffer.add_string buf (Printf.sprintf "entries: %d\n" meta.entries);
  Buffer.add_string buf
    (Printf.sprintf "stats: applied %d rejected %d queries %d\n" meta.applied
       meta.rejected meta.queries);
  Buffer.add_string buf
    (Printf.sprintf "memo: hits %d misses %d entries %d\n" meta.memo_hits
       meta.memo_misses meta.memo_entries);
  Buffer.add_string buf "ids:";
  List.iter
    (fun id ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int id))
    ids;
  Buffer.add_string buf "\n\n";
  let tmp = path ^ ".new" in
  (* the LDIF body, the bulk of the payload, is copied once: into the frame *)
  io.Io.write tmp
    (Frame.encode_parts [ Buffer.contents buf; Bounds_codec.Ldif.to_string inst ]);
  io.Io.rename tmp path

(* --- reading ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let unframe io path =
  match io.Io.read path with
  | None -> Error "no checkpoint"
  | Some raw -> (
      match Frame.read raw 0 with
      | Frame.End -> Error "empty checkpoint file"
      | Frame.Torn { reason; _ } -> Error ("damaged checkpoint: " ^ reason)
      | Frame.Record { payload; next } ->
          if next <> String.length raw then
            Error "trailing bytes after checkpoint frame"
          else Ok payload)

(* header lines end at the first blank line; the rest is the LDIF body *)
let split_header payload =
  let rec go start acc =
    match String.index_from_opt payload start '\n' with
    | None -> Error "checkpoint header has no terminating blank line"
    | Some j ->
        let line = String.sub payload start (j - start) in
        if line = "" then
          Ok (List.rev acc, String.sub payload (j + 1) (String.length payload - j - 1))
        else go (j + 1) (line :: acc)
  in
  go 0 []

let field name line =
  let prefix = name ^ ":" in
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

let int_field name line =
  match field name line with
  | None -> None
  | Some v -> int_of_string_opt v

let parse_header lines =
  match lines with
  | tag :: lsn :: entries :: stats :: memo :: ids :: [] ->
      if tag <> format_tag then Error (Printf.sprintf "unknown checkpoint format %S" tag)
      else
        let* lsn =
          Option.to_result ~none:"bad lsn line" (int_field "lsn" lsn)
        in
        let* entries =
          Option.to_result ~none:"bad entries line" (int_field "entries" entries)
        in
        let* applied, rejected, queries =
          match field "stats" stats with
          | Some s -> (
              match String.split_on_char ' ' s with
              | [ "applied"; a; "rejected"; r; "queries"; q ] -> (
                  match
                    (int_of_string_opt a, int_of_string_opt r, int_of_string_opt q)
                  with
                  | Some a, Some r, Some q -> Ok (a, r, q)
                  | _ -> Error "bad stats line")
              | _ -> Error "bad stats line")
          | None -> Error "bad stats line"
        in
        let* memo_hits, memo_misses, memo_entries =
          match field "memo" memo with
          | Some s -> (
              match String.split_on_char ' ' s with
              | [ "hits"; h; "misses"; m; "entries"; e ] -> (
                  match
                    (int_of_string_opt h, int_of_string_opt m, int_of_string_opt e)
                  with
                  | Some h, Some m, Some e -> Ok (h, m, e)
                  | _ -> Error "bad memo line")
              | _ -> Error "bad memo line")
          | None -> Error "bad memo line"
        in
        let* ids =
          match field "ids" ids with
          | None -> Error "bad ids line"
          | Some s ->
              let parts =
                List.filter (fun p -> p <> "") (String.split_on_char ' ' s)
              in
              let rec to_ints acc = function
                | [] -> Ok (List.rev acc)
                | p :: rest -> (
                    match int_of_string_opt p with
                    | Some i -> to_ints (i :: acc) rest
                    | None -> Error (Printf.sprintf "bad id %S" p))
              in
              to_ints [] parts
        in
        if List.length ids <> entries then
          Error
            (Printf.sprintf "id list has %d entries, header says %d"
               (List.length ids) entries)
        else
          Ok
            ( {
                lsn;
                entries;
                applied;
                rejected;
                queries;
                memo_hits;
                memo_misses;
                memo_entries;
              },
              Array.of_list ids )
  | _ -> Error "checkpoint header is incomplete"

let read_meta io path =
  let* payload = unframe io path in
  let* lines, _ldif = split_header payload in
  let* meta, _ids = parse_header lines in
  Ok meta

let read io path ~typing =
  let* payload = unframe io path in
  let* lines, ldif = split_header payload in
  let* meta, ids = parse_header lines in
  let id_of k =
    if k >= Array.length ids then -1 (* caught below as an entry-count mismatch *)
    else ids.(k)
  in
  match
    Bounds_codec.Ldif.fold_entries ~typing ~id_of
      (fun ~parent e inst ->
        Result.map_error Instance.error_to_string (Instance.add ~parent e inst))
      Instance.empty ldif
  with
  | Error e -> Error ("checkpoint body: " ^ Bounds_codec.Ldif.error_to_string e)
  | Ok inst ->
      if Instance.size inst <> meta.entries then
        Error
          (Printf.sprintf "checkpoint body has %d entries, header says %d"
             (Instance.size inst) meta.entries)
      else Ok (meta, inst)
