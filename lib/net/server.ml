(* The directory server: snapshot-isolated readers, one writer, group
   commit.

   Thread architecture (systhreads — the work is I/O- and
   fsync-bound, so the runtime lock is not the bottleneck):

   - the {!Front} end's acceptor and handler threads, one handler per
     connection: a handler evaluates reads itself, lock-free against
     the current {!Directory.Snapshot}, and hands writes and
     checkpoints to [handle], which enqueues them for the writer and
     blocks on a per-request semaphore until the commit (and its
     fsync) is durable;
   - one {e writer} thread drains the queue in chunks of at most
     [batch_max], admits each transaction against the rolling version,
     and commits every maximal run of writes through {!Store.batch} —
     one WAL append, one shared fsync, then all acknowledgements at
     once.  After a chunk that changed the directory it publishes a
     fresh snapshot.

   The durability contract this preserves: a reply is sent only after
   the transaction's log record is on disk (acknowledged ⊆ recovered —
   {!Store.batch}'s discipline), while readers never observe a
   half-applied batch (they hold whatever snapshot was current when
   they read it).

   Replication ([replicate:true]) adds subscribers: a connection that
   says hello as a replica and subscribes is granted a catch-up set on
   the writer thread (so it is serialized with commits — no record can
   land between the catch-up read and the live feed) and then turns
   into a one-way feed.  The store's ship hook, which also fires on the
   writer thread right after each commit's durability point, pushes
   every acknowledged record onto each subscriber's queue; the
   connection's own thread drains it to the socket. *)

open Bounds_core
module Store = Bounds_store.Store

(* One replication subscriber: the writer thread (catch-up, ship hook)
   pushes feed messages onto [sq]; the connection's feed loop drains
   them to the socket.  Both sides synchronize on the server mutex
   [m]; [sc] is signalled under it when [sq] gains an item. *)
type sub = {
  sid : int;
  sq : Proto.stream Queue.t;  (* guarded by [m] *)
  sc : Condition.t;  (* waits on [m] *)
  mutable sent_lsn : int;  (* highest lsn written to the socket *)
}

type pending = {
  req : Proto.request;
  sem : Semaphore.Binary.t;
  mutable reply : Proto.response;
  mutable sub : sub option;  (* a granted subscription rides back here *)
}

type stats = {
  clients : int;  (** handler threads currently connected *)
  reads : int;
  writes_ok : int;
  writes_rejected : int;
  batches : int;  (** group commits (WAL appends) *)
  batched : int;  (** write transactions those commits carried *)
  max_batch : int;
  snapshots_retired : int;
  lsn : int;  (** last durable log sequence number *)
  recovered : string;  (** how recovery found this store's tail *)
  replicas : int;  (** live replication subscribers *)
  replica_lag : int;  (** records not yet shipped to the slowest one *)
}

type t = {
  store : Store.t;
  replicate : bool;
  front : Front.t;
  batch_max : int;
  queue : pending Queue.t;  (* guarded by [m] *)
  m : Mutex.t;
  nonempty : Condition.t;  (* queue gained an item, or stopping *)
  mutable stopping : bool;
  mutable subs : sub list;  (* guarded by [m] *)
  mutable next_sid : int;  (* guarded by [m] *)
  mutable writer : Thread.t option;
  (* write counters, guarded by [m] *)
  mutable n_writes_ok : int;
  mutable n_writes_rejected : int;
  mutable n_batches : int;
  mutable n_batched : int;
  mutable n_max_batch : int;
}

let port t = Front.port t.front

let stats t =
  let lsn = Store.lsn t.store in
  let recovered = Front.recovered_line (Store.recovery t.store) in
  let clients = Front.clients t.front in
  Mutex.protect t.m (fun () ->
      {
        clients;
        reads = Front.reads t.front;
        writes_ok = t.n_writes_ok;
        writes_rejected = t.n_writes_rejected;
        batches = t.n_batches;
        batched = t.n_batched;
        max_batch = t.n_max_batch;
        snapshots_retired = Front.retired t.front;
        lsn;
        recovered;
        replicas = List.length t.subs;
        replica_lag =
          List.fold_left (fun acc s -> max acc (lsn - s.sent_lsn)) 0 t.subs;
      })

let stats_text s =
  Printf.sprintf
    "clients %d\nreads %d\nwrites_ok %d\nwrites_rejected %d\n\
     batches %d\nbatched %d\nmax_batch %d\nsnapshots_retired %d\n\
     lsn %d\nrecovered %s\nreplicas %d\nreplica_lag %d"
    s.clients s.reads s.writes_ok s.writes_rejected s.batches s.batched
    s.max_batch s.snapshots_retired s.lsn s.recovered s.replicas
    s.replica_lag

let serve_query = Front.serve_query
let serve_search = Front.serve_search

(* --- write path (the single writer thread) ------------------------------ *)

let apply_one t text =
  (* Parse at admission time against the rolling version — inside the
     batch, so DNs resolve against the effects of earlier transactions
     in the same group. *)
  let d = Store.directory t.store in
  let typing = (Store.schema t.store).Schema.typing in
  match Bounds_codec.Ldif.parse_changes ~typing (Directory.instance d) text with
  | Error e -> Proto.Failed ("parse: " ^ e)
  | Ok ops -> (
      (* one verdict shape across every write surface: the store's
         Admission.result carries the lsn the record was stamped with
         (mid-batch, that is its buffered position — durable once the
         shared flush lands, which is before this reply is released) *)
      match Store.apply t.store ops with
      | Admission.Accepted { lsn; ops; _ } ->
          Proto.Reply
            (Printf.sprintf "applied %d ops at lsn %d" (List.length ops)
               (Option.value lsn ~default:(Store.lsn t.store)))
      | Admission.Rejected { reason; _ } ->
          Proto.Failed (Format.asprintf "%a" Monitor.pp_rejection reason))

let publish t = Front.publish t.front (Directory.snapshot (Store.directory t.store))

(* Commit a run of [Apply]s as one group: tentative replies are
   computed while the batch admits transaction by transaction, but
   nothing is acknowledged until {!Store.batch} has flushed the shared
   append — if that flush fails, every tentatively-accepted reply is
   downgraded, matching the store's rollback. *)
let commit_applies t items =
  let n = List.length items in
  let tentative = Array.make n (Proto.Failed "not processed") in
  let committed =
    match
      Store.batch t.store (fun () ->
          List.iteri
            (fun i p ->
              match p.req with
              | Proto.Apply text -> tentative.(i) <- apply_one t text
              | _ -> assert false)
            items)
    with
    | (), _admissions -> true
    | exception e ->
        let msg = "commit failed: " ^ Printexc.to_string e in
        Array.iteri
          (fun i r ->
            match r with
            | Proto.Reply _ -> tentative.(i) <- Proto.Failed msg
            | Proto.Failed _ -> ())
          tentative;
        false
  in
  let ok =
    Array.fold_left
      (fun k r -> match r with Proto.Reply _ -> k + 1 | _ -> k)
      0 tentative
  in
  Mutex.protect t.m (fun () ->
      t.n_writes_ok <- t.n_writes_ok + ok;
      t.n_writes_rejected <- t.n_writes_rejected + (n - ok);
      if committed && ok > 0 then begin
        t.n_batches <- t.n_batches + 1;
        t.n_batched <- t.n_batched + ok;
        t.n_max_batch <- max t.n_max_batch ok
      end);
  if committed && ok > 0 then publish t;
  (* Acknowledge only now: the shared fsync is behind us. *)
  List.iteri
    (fun i p ->
      p.reply <- tentative.(i);
      Semaphore.Binary.release p.sem)
    items

let commit_checkpoint t p =
  (match Store.checkpoint t.store with
  | () -> p.reply <- Proto.Reply (Printf.sprintf "checkpoint at lsn %d" (Store.lsn t.store))
  | exception e -> p.reply <- Proto.Failed ("checkpoint failed: " ^ Printexc.to_string e));
  Semaphore.Binary.release p.sem

(* Grant a subscription.  Runs on the writer thread, which serializes
   the catch-up read with commits: no record can land between
   [records_from] and the registration below, and the ship hook fires
   on this same thread — the feed never gaps and never duplicates.
   Subscribers whose lsn the logs no longer cover (or who ask from -1)
   get a [Boot] bootstrap package instead. *)
let commit_subscribe t p from_lsn =
  let sub =
    Mutex.protect t.m (fun () ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        { sid; sq = Queue.create (); sc = Condition.create (); sent_lsn = from_lsn })
  in
  let boot () =
    let schema, checkpoint, lsn = Store.boot_blob t.store in
    [ Proto.Boot { lsn; schema; checkpoint } ]
  in
  let items =
    if from_lsn < 0 then boot ()
    else
      match Store.records_from t.store ~lsn:from_lsn with
      | `Records rs -> List.map (fun (lsn, ops) -> Proto.Ship { lsn; ops }) rs
      | `Too_old -> boot ()
  in
  Mutex.protect t.m (fun () ->
      List.iter (fun i -> Queue.push i sub.sq) items;
      t.subs <- sub :: t.subs);
  p.sub <- Some sub;
  p.reply <-
    Proto.Reply
      (Printf.sprintf "subscribed from %d at %d" from_lsn (Store.lsn t.store));
  Semaphore.Binary.release p.sem

let writer_loop t =
  let rec drain () =
    let chunk =
      Mutex.protect t.m (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.nonempty t.m
          done;
          let rec take acc k =
            if k = 0 || Queue.is_empty t.queue then List.rev acc
            else take (Queue.pop t.queue :: acc) (k - 1)
          in
          take [] t.batch_max)
    in
    match chunk with
    | [] -> if not (Mutex.protect t.m (fun () -> t.stopping)) then drain ()
        (* stopping and queue empty: writer done *)
    | chunk ->
        (* maximal runs of applies commit as one group; checkpoints are
           barriers between them *)
        let rec runs = function
          | [] -> ()
          | { req = Proto.Apply _; _ } :: _ as l ->
              let applies, rest =
                let rec split acc = function
                  | ({ req = Proto.Apply _; _ } as p) :: tl -> split (p :: acc) tl
                  | tl -> (List.rev acc, tl)
                in
                split [] l
              in
              commit_applies t applies;
              runs rest
          | ({ req = Proto.Checkpoint; _ } as p) :: tl ->
              commit_checkpoint t p;
              runs tl
          | ({ req = Proto.Subscribe { from_lsn }; _ } as p) :: tl ->
              commit_subscribe t p from_lsn;
              runs tl
          | p :: tl ->
              p.reply <- Proto.Failed "not a write request";
              Semaphore.Binary.release p.sem;
              runs tl
        in
        runs chunk;
        drain ()
  in
  drain ()

(* Queue a request for the writer and wait for its reply.  Once the
   server is stopping nothing more is queued: the request's reply stays
   "server stopping". *)
let enqueue t req =
  let p =
    {
      req;
      sem = Semaphore.Binary.make false;
      reply = Proto.Failed "server stopping";
      sub = None;
    }
  in
  let queued =
    Mutex.protect t.m (fun () ->
        (not t.stopping)
        && begin
             Queue.push p t.queue;
             Condition.signal t.nonempty;
             true
           end)
  in
  if queued then Semaphore.Binary.acquire p.sem;
  p

(* --- what the front end hands over ----------------------------------------- *)

(* Drain a subscriber's queue to its socket until the server stops or
   the peer goes away (a failed send).  Runs on the connection's own
   handler thread — after [Subscribe] is granted, the connection stops
   being request/response and becomes this one-way feed, framed in the
   connection's buffer [out]. *)
let feed_loop t fd out sub =
  let rec loop () =
    let items =
      Mutex.protect t.m (fun () ->
          while Queue.is_empty sub.sq && not t.stopping do
            Condition.wait sub.sc t.m
          done;
          let rec take acc =
            if Queue.is_empty sub.sq then List.rev acc
            else take (Queue.pop sub.sq :: acc)
          in
          take [])
    in
    match items with
    | [] -> ()  (* stopping with nothing queued: feed done *)
    | items -> (
        match
          List.iter
            (fun item ->
              Conn.send_parts_with out fd (Proto.stream_parts item);
              sub.sent_lsn <-
                (match item with
                | Proto.Ship { lsn; _ } | Proto.Mark { lsn } | Proto.Boot { lsn; _ }
                  ->
                    lsn))
            items
        with
        | () -> loop ()
        | exception Unix.Unix_error _ -> ())
  in
  (try loop () with Unix.Unix_error _ -> ());
  Mutex.protect t.m (fun () -> t.subs <- List.filter (fun s -> s.sid <> sub.sid) t.subs)

(* Writes and checkpoints queue for the writer.  A subscription needs
   replication on and a replica hello; once granted, the connection
   becomes its subscriber's feed. *)
let handle t ~role = function
  | Proto.Subscribe _ when not t.replicate ->
      Front.Reply (Proto.Failed "replication not enabled")
  | Proto.Subscribe _ when role <> Proto.Replica ->
      Front.Reply (Proto.Failed "subscribe requires a replica hello")
  | req -> (
      match enqueue t req with
      | { reply = Proto.Reply _ as r; sub = Some sub; _ } ->
          Front.Feed (r, fun fd out -> feed_loop t fd out sub)
      | p -> Front.Reply p.reply)

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(batch_max = 64)
    ?(max_clients = 64) ?(replicate = false) store =
  if batch_max < 1 then invalid_arg "Server.start: batch_max < 1";
  if max_clients < 1 then invalid_arg "Server.start: max_clients < 1";
  let t =
    {
      store;
      replicate;
      front = Front.listen ~host ~port ~max_clients;
      batch_max;
      queue = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      subs = [];
      next_sid = 0;
      writer = None;
      n_writes_ok = 0;
      n_writes_rejected = 0;
      n_batches = 0;
      n_batched = 0;
      n_max_batch = 0;
    }
  in
  publish t;
  if replicate then
    Store.set_ship_hook store
      (Some
         (fun item ->
           let msg =
             match item with
             | Store.Ship_txn { lsn; ops } -> Proto.Ship { lsn; ops }
             | Store.Ship_mark { lsn } -> Proto.Mark { lsn }
           in
           Mutex.protect t.m (fun () ->
               List.iter
                 (fun sub ->
                   Queue.push msg sub.sq;
                   Condition.signal sub.sc)
                 t.subs)));
  t.writer <- Some (Thread.create writer_loop t);
  Front.serve t.front ~handle:(handle t)
    ~stats:(fun () -> stats_text (stats t))
    ~wake:(fun () ->
      Mutex.protect t.m (fun () ->
          t.stopping <- true;
          Condition.broadcast t.nonempty;
          (* every feed loop too, so it can notice [stopping] *)
          List.iter (fun s -> Condition.broadcast s.sc) t.subs));
  t

let stop t = Front.stop t.front

let wait t =
  Front.wait t.front;
  Option.iter Thread.join t.writer;
  Store.set_ship_hook t.store None
