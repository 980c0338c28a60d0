open Bounds_model

type meta = {
  lsn : int;
  entries : int;
  applied : int;
  rejected : int;
  queries : int;
}

let format_tag = "bounds-store checkpoint v2"

(* A text header ended by a blank line, then the body: the insert-only
   transaction that rebuilds the instance, at the header's lsn.  The
   body is copied once, into the frame. *)
let write io path meta inst =
  let header =
    Printf.sprintf "%s\nlsn: %d\nentries: %d\nstats: applied %d rejected %d queries %d\n\n"
      format_tag meta.lsn meta.entries meta.applied meta.rejected meta.queries
  in
  let tmp = path ^ ".new" in
  io.Io.write tmp
    (Frame.encode_parts [ header; Codec.encode_inserts ~lsn:meta.lsn inst ]);
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

(* The header's lines, and the offset of the body after the blank line
   that ends them. *)
let split_header payload =
  let rec go start acc =
    match String.index_from_opt payload start '\n' with
    | None -> Error "checkpoint header has no terminating blank line"
    | Some j when j = start -> Ok (List.rev acc, j + 1)
    | Some j -> go (j + 1) (String.sub payload start (j - start) :: acc)
  in
  go 0 []

let scan what line fmt f =
  Option.to_result ~none:(Printf.sprintf "bad %s line %S" what line)
    (Scanf.sscanf_opt line fmt f)

(* The tag first: a header of another format is refused by its name. *)
let parse_header = function
  | tag :: _ when tag <> format_tag ->
      Error (Printf.sprintf "unknown checkpoint format %S" tag)
  | [ _; lsn; entries; stats ] ->
      let* lsn = scan "lsn" lsn "lsn: %d%!" Fun.id in
      let* entries = scan "entries" entries "entries: %d%!" Fun.id in
      scan "stats" stats "stats: applied %d rejected %d queries %d%!"
        (fun applied rejected queries -> { lsn; entries; applied; rejected; queries })
  | _ -> Error "checkpoint header is incomplete"

let header io path =
  let* payload = unframe io path in
  let* lines, body = split_header payload in
  let* meta = parse_header lines in
  Ok (meta, payload, body)

let read_meta io path = Result.map (fun (meta, _, _) -> meta) (header io path)

let read io path ~typing =
  let* meta, payload, body = header io path in
  let start ~lsn ~count =
    if lsn <> meta.lsn then
      Error (Printf.sprintf "body at lsn %d, header says %d" lsn meta.lsn)
    else if count <> meta.entries then
      Error (Printf.sprintf "body has %d entries, header says %d" count meta.entries)
    else Ok Instance.empty
  in
  let step inst = function
    | Update.Delete id -> Error (Printf.sprintf "delete of %d, not an insert" id)
    | op -> Update.apply_op inst op
  in
  match Codec.fold_txn ~typing payload ~off:body ~start step with
  | Error m -> Error ("checkpoint body: " ^ m)
  | Ok inst -> Ok (meta, inst)
