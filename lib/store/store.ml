open Bounds_core

let schema_file = "schema.spec"
let checkpoint_file = "checkpoint.ckpt"
let wal_file = "wal.log"
let delta_file = "delta.log"

type tail = Clean | Recovered_at of { offset : int; reason : string }

type report = {
  checkpoint_lsn : int;
  replayed : int;
  skipped : int;
  tail : tail;
  segments : int;
}

(* What a replication feed sees: every durable record the moment it is
   acknowledged, plus a marker whenever the store compacts (a replica
   may fold its own log on the same beat). *)
type ship =
  | Ship_txn of { lsn : int; ops : Update.op list }
  | Ship_mark of { lsn : int }

(* Collapse the log into a fresh full snapshot once it holds this many
   segments. *)
let delta_chain = 8

(* The open write: transactions staged against the rolling version
   since the last flush.  An unbatched {!apply} and a {!replica_apply}
   are writes of one; {!batch} holds one open across its callback. *)
type pending = {
  dir0 : Directory.t;  (** the version a failed write rolls back to *)
  lsn0 : int;
  buf : Buffer.t;  (** encoded records, lsns [lsn0 + 1 ..] in order *)
  mutable results : Admission.result list;  (** newest first *)
}

type t = {
  io : Io.t;
  schema_v : Schema.t;
  auto_checkpoint : int;
  mutable dir : Directory.t;
  mutable lsn_v : int;
  mutable wal_bytes_v : int;
  mutable wal_records_v : int;
  mutable segments_v : int;  (** segment markers since the last full snapshot *)
  mutable since_mark : int;  (** records logged since the last marker *)
  mutable base_lsn : int;  (** lsn of the base checkpoint *)
  (* totals across crashes, counted only once a write is durable *)
  mutable applied : int;
  mutable rejected : int;
  queries0 : int;  (** query total carried in from the opened checkpoint *)
  mutable pending : pending option;
  (* the replication feed, fired only after the record's bytes are
     durable — never mid-batch *)
  mutable ship : (ship -> unit) option;
  mutable recovery_v : report option;  (** how {!open_} found the logs *)
}

type error =
  | Not_a_store of string
  | Already_a_store
  | Corrupt of string
  | Illegal of Violation.t list
  | Bad_load of string

let error_to_string = function
  | Not_a_store m -> "not a store: " ^ m
  | Already_a_store -> "already a store"
  | Corrupt m -> "corrupt store: " ^ m
  | Illegal vs ->
      Format.asprintf "illegal instance:@ %a"
        (Format.pp_print_list Violation.pp)
        vs
  | Bad_load m -> "bulk load failed: " ^ m

let pp_tail ppf = function
  | Clean -> Format.fprintf ppf "clean"
  | Recovered_at { offset; reason } ->
      Format.fprintf ppf "recovered at byte %d (%s)" offset reason

let pp_report ppf r =
  Format.fprintf ppf "checkpoint lsn %d, %d replayed, %d skipped, tail %a"
    r.checkpoint_lsn r.replayed r.skipped pp_tail r.tail

let exists io = io.Io.read schema_file <> None

let schema t = t.schema_v
let directory t = t.dir
let lsn t = t.lsn_v
let wal_bytes t = t.wal_bytes_v
let wal_records t = t.wal_records_v
let segments t = t.segments_v
let recovery t = t.recovery_v
let set_ship_hook t hook = t.ship <- hook

(* The feed must never be able to fail a commit that is already durable:
   a throwing subscriber is that subscriber's problem. *)
let fire_ship t item =
  match t.ship with None -> () | Some f -> ( try f item with _ -> ())

let stats t =
  let s = Directory.stats t.dir in
  {
    Checkpoint.lsn = t.lsn_v;
    entries = s.Directory.entries;
    applied = t.applied;
    rejected = t.rejected;
    queries = t.queries0 + s.Directory.queries;
  }

(* Collapse: rewrite the whole snapshot (atomic temp+rename), then reset
   the log.  A crash after the rename leaves log records with lsn ≤ the
   new checkpoint's, which recovery skips as duplicates — every
   intermediate state recovers. *)
let full_checkpoint t =
  Checkpoint.write t.io checkpoint_file (stats t) (Directory.instance t.dir);
  Wal.reset t.io wal_file;
  t.segments_v <- 0;
  t.since_mark <- 0;
  t.wal_bytes_v <- 0;
  t.wal_records_v <- 0;
  t.base_lsn <- t.lsn_v;
  fire_ship t (Ship_mark { lsn = t.lsn_v })

(* A segment ends with a marker record — lsn 0, no ops — so recovery
   can count segments without side metadata; lsn 0 precedes every real
   lsn, so the replay discipline passes over it. *)
let segment_marker = Wal.encode_record ~lsn:0 []

(* O(1) compaction: close the current segment with one marker append.
   Nothing is read or copied: the segment's records stay where they
   are, and what bounds the log is the collapse after [delta_chain]
   segments.  A torn marker is a torn tail, which recovery cuts; it
   holds no transaction, so nothing acknowledged is lost.  A segment
   with no records gets no marker. *)
let mark_segment t =
  if t.since_mark > 0 then begin
    Wal.append_raw t.io wal_file segment_marker;
    t.segments_v <- t.segments_v + 1;
    t.since_mark <- 0;
    t.wal_bytes_v <- t.wal_bytes_v + String.length segment_marker;
    fire_ship t (Ship_mark { lsn = t.lsn_v })
  end

let checkpoint ?(full = false) t =
  if full || t.segments_v >= delta_chain then full_checkpoint t
  else mark_segment t

(* --- the write path -------------------------------------------------------- *)

let rollback t p =
  t.pending <- None;
  t.dir <- p.dir0;
  t.lsn_v <- p.lsn0

(* Stage one verdict: an accepted transaction becomes the rolling
   version and takes the next lsn — dense, so later records of the same
   write see the right sequence — but reaches the log only at [flush]. *)
let stage t p dir res =
  let res =
    match res with
    | Admission.Rejected _ -> res
    | Admission.Accepted { ops; _ } ->
        let lsn = t.lsn_v + 1 in
        Buffer.add_string p.buf (Wal.encode_record ~lsn ops);
        t.dir <- dir;
        t.lsn_v <- lsn;
        Admission.with_lsn lsn res
  in
  p.results <- res :: p.results;
  res

(* Land the write: every staged record in one append — one fsync on a
   durable handle — and only then count it, ship it and auto-compact.
   If the append raises, the store rolls back to the write's start and
   the exception propagates: nothing is acknowledged or counted. *)
let flush t p =
  t.pending <- None;
  let bytes = Buffer.length p.buf in
  if bytes > 0 then begin
    (try Wal.append_raw t.io wal_file (Buffer.contents p.buf)
     with e ->
       rollback t p;
       raise e);
    t.wal_bytes_v <- t.wal_bytes_v + bytes;
    t.wal_records_v <- t.wal_records_v + (t.lsn_v - p.lsn0);
    t.since_mark <- t.since_mark + (t.lsn_v - p.lsn0)
  end;
  let results = List.rev p.results in
  List.iter
    (function
      | Admission.Accepted { lsn = Some lsn; ops; _ } ->
          t.applied <- t.applied + 1;
          fire_ship t (Ship_txn { lsn; ops })
      | Admission.Accepted { lsn = None; _ } -> ()
      | Admission.Rejected _ -> t.rejected <- t.rejected + 1)
    results;
  (* a checkpoint taken mid-write would cover records not on disk yet:
     auto-compaction waits for the flush *)
  if bytes > 0 && t.auto_checkpoint > 0 && t.since_mark >= t.auto_checkpoint
  then checkpoint t;
  results

(* Run [f] inside an open write, then flush it — or roll it back if [f]
   or the append raises. *)
let write t f =
  if t.pending <> None then invalid_arg "Store.batch: batch already open";
  let p = { dir0 = t.dir; lsn0 = t.lsn_v; buf = Buffer.create 256; results = [] } in
  t.pending <- Some p;
  match f p with
  | exception e ->
      rollback t p;
      raise e
  | result -> (result, flush t p)

(* An admitted transaction with no ops changes nothing, so it takes no
   lsn and no record, and [flush] neither counts nor ships it.  (An
   empty record an older build logged or shipped still takes its lsn
   in recovery and in [replica_apply], which keep the primary's
   numbering.) *)
let admit t p ops =
  match Directory.apply t.dir ops with
  | _, (Admission.Accepted { ops = []; _ } as res) ->
      p.results <- res :: p.results;
      res
  | dir, res -> stage t p dir res

(* Group commit.  Every {!apply} inside [f] is admitted against the
   rolling version as usual and staged; when [f] returns, the whole
   write lands with one append, and only then does [batch] return,
   which is when the caller may acknowledge any of the batched
   transactions.  The on-disk bytes are identical to sequential
   {!apply}s of the same accepted transactions — an unbatched apply is
   a batch of one.

   Crash discipline: a crash before the flush leaves none of the batch
   on disk (none was acknowledged); a torn flush leaves a prefix of
   whole records that recovery replays (admitted-but-unacknowledged
   transactions — allowed, since durability promises acknowledged ⊆
   recovered). *)
let batch t f = write t (fun _ -> f ())

let apply t ops =
  match t.pending with
  | Some p -> admit t p ops
  | None -> fst (write t (fun p -> admit t p ops))

(* Streaming bulk load: the caller drives [feed], pushing one entry at a
   time into a {!Directory.Bulk} builder (so a million-entry dump never
   materializes an op list).  Nothing is committed until the whole feed
   succeeded and — unless [trust] — the final instance passed one full
   admission check; the commit itself is an atomic checkpoint replace,
   so a crash at any point leaves the pre-load store intact.  Loaded
   entries bypass the log on purpose: one O(|D|) checkpoint instead of
   |Δ| log records, which is the point of a bulk path. *)
let load ?(trust = false) t feed =
  let bulk = Directory.Bulk.start t.dir in
  let before = Directory.size t.dir in
  let add ~parent entry =
    match Directory.Bulk.add bulk [ Update.Insert { parent; entry } ] with
    | Ok () -> Ok ()
    | Error rej -> Error (Format.asprintf "%a" Monitor.pp_rejection rej)
  in
  match feed add with
  | Error m -> Error (Bad_load m)
  | Ok () -> (
      let dir = Directory.Bulk.finish bulk in
      match (if trust then [] else Directory.validate dir) with
      | _ :: _ as vs -> Error (Illegal vs)
      | [] ->
          let loaded = Directory.size dir - before in
          t.dir <- dir;
          (* each loaded entry counts as one applied insert *)
          t.applied <- t.applied + loaded;
          (* commit: fresh FULL checkpoint at the current lsn, then log
             reset.  Loaded entries bypass the log, so only a whole
             snapshot captures them — a segment marker here would lose
             the load.  A crash between the two leaves old records with
             lsn ≤ the checkpoint's, which recovery skips as
             duplicates. *)
          full_checkpoint t;
          Ok loaded)

let close (_ : t) = ()

let make io schema_v ~auto_checkpoint dir (meta : Checkpoint.meta) =
  {
    io;
    schema_v;
    auto_checkpoint;
    dir;
    lsn_v = meta.lsn;
    wal_bytes_v = 0;
    wal_records_v = 0;
    segments_v = 0;
    since_mark = 0;
    base_lsn = meta.lsn;
    applied = meta.applied;
    rejected = meta.rejected;
    queries0 = meta.queries;
    pending = None;
    ship = None;
    recovery_v = None;
  }

let init ?(auto_checkpoint = 0) io schema inst =
  if exists io then Error Already_a_store
  else
    match Directory.open_ schema inst with
    | Error vs -> Error (Illegal vs)
    | Ok dir ->
        let meta =
          {
            Checkpoint.lsn = 0;
            entries = Directory.size dir;
            applied = 0;
            rejected = 0;
            queries = 0;
          }
        in
        Checkpoint.write io checkpoint_file meta inst;
        (* clear any stale log left behind by an earlier store in the
           same directory (the marker was removed, not the data) *)
        Wal.reset io wal_file;
        (* the schema is the store marker, written last: a crash anywhere
           during init leaves a directory [open_] refuses as Not_a_store *)
        io.Io.write schema_file (Spec_printer.to_string schema);
        Ok (make io schema ~auto_checkpoint dir meta)

(* --- recovery ----------------------------------------------------------- *)

type replay_state = {
  mutable cur : int;
  mutable replayed : int;
  mutable skipped : int;
  mutable broke : Wal.truncation option;
  mutable segments : int;  (** segment markers seen *)
  mutable at_mark : int;  (** records seen up to the last marker *)
}

(* Stream the log once ({!Wal.fold} — O(record) memory) and replay each
   record under the lsn discipline: lsn ≤ current is a duplicate the
   checkpoint already covers (left by a crash between checkpoint-rename
   and log-reset) and is skipped; lsn = current+1 is applied; anything
   else — a gap, or a record that no longer applies — marks the damage
   point and ends replay.  Segment markers (lsn 0, no ops) are counted,
   not replayed.  Returns where the log's valid prefix ends and the
   damage past it, if any. *)
let replay_log st ~apply_record io =
  let folded =
    Wal.fold io wal_file
      (fun () (r : Wal.record) ->
        if st.broke <> None then ()
        else if r.lsn = 0 && r.ops = [] then begin
          st.segments <- st.segments + 1;
          st.at_mark <- st.replayed + st.skipped
        end
        else if r.lsn <= st.cur then st.skipped <- st.skipped + 1
        else if r.lsn = st.cur + 1 then
          match apply_record r.ops with
          | Ok () ->
              st.cur <- r.lsn;
              st.replayed <- st.replayed + 1
          | Error rej ->
              st.broke <-
                Some
                  {
                    Wal.offset = r.offset;
                    reason =
                      Format.asprintf "replay rejected: %a"
                        Monitor.pp_rejection rej;
                  }
        else
          st.broke <-
            Some
              {
                Wal.offset = r.offset;
                reason =
                  Printf.sprintf "lsn gap: expected %d, found %d" (st.cur + 1)
                    r.lsn;
              })
      ()
  in
  match st.broke with
  | Some b -> (b.Wal.offset, st.broke)
  | None -> (folded.Wal.end_offset, folded.Wal.truncated)

(* A replay engine folds logged records on top of the checkpoint's
   instance and yields the recovered session.  The default is trusted:
   acknowledged records passed admission when they were logged
   (Theorem 4.1) and the CRC vouches they are the same bytes, so each
   folds in with {!Update.apply} alone — no legality check, no index
   work — and the session (index, vindex, memo, monitor) is built once,
   by one admission scan of the recovered instance. *)
type engine = {
  add : Update.op list -> (unit, Monitor.rejection) result;
  finish : unit -> (Directory.t, Violation.t list) result;
}

let engine ~step ~finish s0 =
  let cur = ref s0 in
  {
    add = (fun ops -> Result.map (fun s -> cur := s) (step !cur ops));
    finish = (fun () -> finish !cur);
  }

let trusted schema inst =
  Ok
    (engine inst ~finish:(Directory.open_ schema) ~step:(fun inst ops ->
         Result.map_error (fun m -> Monitor.Bad_ops m) (Update.apply inst ops)))

(* Full admission per record ({!Directory.apply}) on a session opened
   from the checkpoint: the differential twin of trusted replay and the
   benchmark baseline. *)
let checked schema inst =
  Directory.open_ schema inst
  |> Result.map
       (engine ~finish:Result.ok ~step:(fun dir ops ->
            match Directory.apply dir ops with
            | dir, Admission.Accepted _ -> Ok dir
            | _, Admission.Rejected { reason; _ } -> Error reason))

let recover ~engine ?(auto_checkpoint = 0) io =
  let ( let* ) = Result.bind in
  let* spec =
    Option.to_result ~none:(Not_a_store ("missing " ^ schema_file))
      (io.Io.read schema_file)
  in
  let* schema =
    Spec_parser.parse spec
    |> Result.map_error (fun e ->
           Corrupt (schema_file ^ ": " ^ Spec_parser.error_to_string e))
  in
  let* meta, inst =
    Checkpoint.read io checkpoint_file ~typing:schema.Schema.typing
    |> Result.map_error (fun m -> Corrupt (checkpoint_file ^ ": " ^ m))
  in
  let illegal vs = Illegal vs in
  let* engine = Result.map_error illegal (engine schema inst) in
  let st =
    {
      cur = meta.Checkpoint.lsn;
      replayed = 0;
      skipped = 0;
      broke = None;
      segments = 0;
      at_mark = 0;
    }
  in
  let valid_end, broke = replay_log st ~apply_record:engine.add io in
  (* an illegal recovered instance fails the open before any log is cut *)
  let* dir = Result.map_error illegal (engine.finish ()) in
  let tail =
    match broke with
    | Some { Wal.offset; reason } ->
        (* cut the log back to the durable prefix so the next append
           extends valid records, not junk *)
        Wal.truncate io wal_file ~keep:offset;
        Recovered_at { offset; reason }
    | None -> Clean
  in
  let report =
    {
      checkpoint_lsn = meta.Checkpoint.lsn;
      replayed = st.replayed;
      skipped = st.skipped;
      tail;
      segments = st.segments;
    }
  in
  Ok
    ( {
        (make io schema ~auto_checkpoint dir meta) with
        lsn_v = st.cur;
        wal_bytes_v = valid_end;
        wal_records_v = st.replayed + st.skipped;
        segments_v = st.segments;
        since_mark = st.replayed + st.skipped - st.at_mark;
        applied = meta.Checkpoint.applied + st.replayed;
        recovery_v = Some report;
      },
      report )

let open_ ?auto_checkpoint io = recover ~engine:trusted ?auto_checkpoint io

(* --- replication (WAL shipment) ------------------------------------------ *)

(* Catch a subscriber up from its last durable lsn: every record with a
   greater lsn still lives in the log iff the subscriber is no older
   than the base checkpoint (records at or below the base's lsn are
   folded into the snapshot and gone from the log).  Segment markers
   carry lsn 0 and drop out with the records the subscriber holds. *)
let records_from t ~lsn:from_lsn =
  if t.pending <> None then invalid_arg "Store.records_from: inside a batch";
  if from_lsn < t.base_lsn || from_lsn > t.lsn_v then `Too_old
  else
    let take acc (r : Wal.record) =
      if r.lsn <= from_lsn then acc else (r.lsn, r.ops) :: acc
    in
    `Records (List.rev (Wal.fold t.io wal_file take []).Wal.acc)

(* A bootstrap package for a subscriber too old (or too new — a primary
   that lost data) to catch up from the logs: the schema text plus the
   current version as one checkpoint blob, encoded through the same
   {!Checkpoint} codec the store trusts on disk.  O(|D|). *)
let boot_blob t =
  if t.pending <> None then invalid_arg "Store.boot_blob: inside a batch";
  ( Spec_printer.to_string t.schema_v,
    Checkpoint.encode (stats t) (Directory.instance t.dir),
    t.lsn_v )

(* Install a shipped bootstrap package as a store directory, replacing
   whatever was there.  The blob is validated against the shipped schema
   before anything is written.  Write order makes a crash at any point
   recoverable: checkpoint first (old log records become skippable
   duplicates), then the log resets, then the schema marker — the same
   marker-last discipline as {!init}.  The caller re-opens with
   {!open_}. *)
let install_snapshot io ~schema ~checkpoint =
  match Spec_parser.parse schema with
  | Error e ->
      Error ("boot schema: " ^ Spec_parser.error_to_string e)
  | Ok parsed -> (
      match Checkpoint.decode ~typing:parsed.Schema.typing checkpoint with
      | Error m -> Error ("boot checkpoint: " ^ m)
      | Ok _ ->
          io.Io.write checkpoint_file checkpoint;
          Wal.reset io wal_file;
          io.Io.write schema_file schema;
          Ok ())

(* The replica's write surface: apply one shipped record under the same
   lsn discipline recovery uses.  A duplicate (lsn already covered) is
   skipped — the overlap a resume-from-lsn re-subscription produces.
   The successor lsn is the trusted case of the primary's write step:
   the primary admitted the record before acknowledging it (Theorem
   4.1) and the frame CRC vouches these are the same bytes, so it is
   replayed in memory without re-checking legality, then landed through
   the same flush as {!apply} — durable before it counts (acknowledged ⊆
   recovered holds on the replica too).  A record that does not replay
   never touches the log.  A gap means shipment lost records — the
   caller must re-bootstrap, not guess. *)
let replica_apply t ~lsn ops =
  if t.pending <> None then invalid_arg "Store.replica_apply: inside a batch";
  if lsn <= t.lsn_v then Ok `Duplicate
  else if lsn <> t.lsn_v + 1 then
    Error
      (Printf.sprintf "lsn gap: expected %d, shipped %d" (t.lsn_v + 1) lsn)
  else
    match Directory.replay t.dir ops with
    | Error rej ->
        Error
          (Format.asprintf "shipped record %d rejected: %a" lsn
             Monitor.pp_rejection rej)
    | Ok dir ->
        let res = Admission.Accepted { lsn = None; ops } in
        ignore (write t (fun p -> stage t p dir res));
        Ok `Applied

(* --- the checked recovery engine ----------------------------------------- *)

module Private = struct
  let open_checked io = recover ~engine:checked io
end
