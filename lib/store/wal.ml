open Bounds_model

type record = { offset : int; lsn : int; ops : Update.op list }
type truncation = { offset : int; reason : string }

type 'a folded = { acc : 'a; end_offset : int; truncated : truncation option }

(* One frame is decoded, handed to [f], and dropped before the next is
   read: the only per-record allocation that outlives a step is whatever
   [f] keeps, so a scan of an arbitrarily long log runs in O(record)
   memory (plus the raw bytes, which the {!Io} abstraction reads whole). *)
let fold io path f init =
  match io.Io.read path with
  | None -> { acc = init; end_offset = 0; truncated = None }
  | Some raw ->
      let rec go acc off =
        match Frame.read raw off with
        | Frame.End -> { acc; end_offset = off; truncated = None }
        | Frame.Torn { offset; reason } ->
            { acc; end_offset = off; truncated = Some { offset; reason } }
        | Frame.Record { payload; next } -> (
            match Codec.decode_txn payload with
            | Ok (lsn, ops) -> go (f acc { offset = off; lsn; ops }) next
            | Error reason ->
                { acc; end_offset = off; truncated = Some { offset = off; reason } })
      in
      go init 0

(* Lsn-addressed replay for replication catch-up: skip every record a
   subscriber already holds (lsn ≤ [lsn]) and the lsn-0 segment markers,
   stream the rest.  Same totality as [fold]. *)
let fold_from io path ~lsn f init =
  fold io path
    (fun acc r -> if r.lsn <= lsn then acc else f acc r)
    init

type scan = {
  records : record list;
  end_offset : int;
  truncated : truncation option;
}

let scan io path =
  let { acc; end_offset; truncated } =
    fold io path (fun acc r -> r :: acc) []
  in
  { records = List.rev acc; end_offset; truncated }

let encode_record ~lsn ops = Frame.encode (Codec.encode_txn ~lsn ops)

let append_raw io path framed = io.Io.append path framed

let record_size ops =
  Frame.header_size + String.length (Codec.encode_txn ~lsn:0 ops)

let reset io path = io.Io.write path ""

let truncate io path ~keep =
  match io.Io.read path with
  | None -> ()
  | Some raw ->
      let keep = max 0 (min keep (String.length raw)) in
      io.Io.write path (String.sub raw 0 keep)
