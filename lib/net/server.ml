(* The directory server: snapshot-isolated readers, one writer, group
   commit.

   Thread architecture (systhreads — the work is I/O- and
   fsync-bound, so the runtime lock is not the bottleneck):

   - an {e acceptor} thread owns the listening socket and spawns one
     handler thread per connection, up to [max_clients];
   - {e handler} threads serve reads directly: pin an epoch slot, load
     the current {!Directory.Snapshot} pointer, evaluate through the
     read-only memo path ([query_ro]/[search] — no locks, no shared
     mutation), unpin, reply.  Writes and checkpoints are enqueued for
     the writer and the handler blocks on a per-request semaphore until
     the commit (and its fsync) is durable;
   - one {e writer} thread drains the queue in chunks of at most
     [batch_max], admits each transaction against the rolling version,
     and commits every maximal run of writes through {!Store.batch} —
     one WAL append, one shared fsync, then all acknowledgements at
     once.  After a chunk that changed the directory it publishes a
     fresh snapshot with [Atomic.exchange] and {!Epoch.retire}s the old
     one.

   The durability contract this preserves: a reply is sent only after
   the transaction's log record is on disk (acknowledged ⊆ recovered —
   {!Store.batch}'s discipline), while readers never observe a
   half-applied batch (they hold whatever snapshot was current when
   they pinned).

   Replication ([replicate:true]) adds subscribers: a connection that
   says hello as a replica and subscribes is granted a catch-up set on
   the writer thread (so it is serialized with commits — no record can
   land between the catch-up read and the live feed) and then turns
   into a one-way feed.  The store's ship hook, which also fires on the
   writer thread right after each commit's durability point, pushes
   every acknowledged record onto each subscriber's queue; the
   connection's own thread drains it to the socket. *)

open Bounds_model
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
  snapshots_pending : int;  (** retired but still pinned by a reader *)
  lsn : int;  (** last durable log sequence number *)
  recovered : string;  (** how recovery found this store's tail *)
  replicas : int;  (** live replication subscribers *)
  replica_lag : int;  (** records not yet shipped to the slowest one *)
}

type t = {
  store : Store.t;
  replicate : bool;
  listen_fd : Unix.file_descr;
  port : int;
  batch_max : int;
  current : Directory.Snapshot.t Atomic.t;
  epoch : Directory.Snapshot.t Epoch.t;
  free_slots : int list ref;  (* guarded by [m] *)
  queue : pending Queue.t;  (* guarded by [m] *)
  m : Mutex.t;
  nonempty : Condition.t;  (* queue gained an item, or stopping *)
  mutable stopping : bool;
  mutable conns : (Unix.file_descr * Thread.t) list;  (* guarded by [m] *)
  mutable subs : sub list;  (* guarded by [m] *)
  mutable next_sid : int;  (* guarded by [m] *)
  mutable acceptor : Thread.t option;
  mutable writer : Thread.t option;
  (* counters, guarded by [m] (read path takes the lock only to bump —
     evaluation itself runs outside it) *)
  mutable n_clients : int;
  mutable n_reads : int;
  mutable n_writes_ok : int;
  mutable n_writes_rejected : int;
  mutable n_batches : int;
  mutable n_batched : int;
  mutable n_max_batch : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let port t = t.port

(* One stats line for how recovery found the store: "fresh" for a
   store born of [init] this process, "clean" when every tail replayed,
   else the positioned truncation reasons — the wire-visible surface of
   [Store.Recovered_at]. *)
let recovered_line = function
  | None -> "fresh"
  | Some (r : Store.report) -> (
      let tail name = function
        | Store.Clean -> None
        | Store.Recovered_at { offset; reason } ->
            Some (Printf.sprintf "%s recovered_at %d (%s)" name offset reason)
      in
      match
        List.filter_map Fun.id [ tail "delta" r.delta_tail; tail "wal" r.tail ]
      with
      | [] -> "clean"
      | l -> String.concat "; " l)

let stats t =
  let lsn = Store.lsn t.store in
  let recovered = recovered_line (Store.recovery t.store) in
  locked t (fun () ->
      {
        clients = t.n_clients;
        reads = t.n_reads;
        writes_ok = t.n_writes_ok;
        writes_rejected = t.n_writes_rejected;
        batches = t.n_batches;
        batched = t.n_batched;
        max_batch = t.n_max_batch;
        snapshots_retired = Epoch.retired t.epoch;
        snapshots_pending = Epoch.pending t.epoch;
        lsn;
        recovered;
        replicas = List.length t.subs;
        replica_lag =
          List.fold_left (fun acc s -> max acc (lsn - s.sent_lsn)) 0 t.subs;
      })

let stats_text s =
  Printf.sprintf
    "clients %d\nreads %d\nwrites_ok %d\nwrites_rejected %d\n\
     batches %d\nbatched %d\nmax_batch %d\n\
     snapshots_retired %d\nsnapshots_pending %d\n\
     lsn %d\nrecovered %s\nreplicas %d\nreplica_lag %d"
    s.clients s.reads s.writes_ok s.writes_rejected s.batches s.batched
    s.max_batch s.snapshots_retired s.snapshots_pending s.lsn s.recovered
    s.replicas s.replica_lag

(* --- read path (handler threads, lock-free) ----------------------------- *)

(* The reply body: the count, then one DN per line.  [Instance.dns]
   renders each ancestor once for the whole listing. *)
let dn_listing inst ids =
  String.concat "\n" (string_of_int (List.length ids) :: Instance.dns inst ids)

let serve_query snap text =
  match Bounds_query.Query_parser.parse text with
  | Error e -> Proto.Failed ("query: " ^ Parse_error.to_string e)
  | Ok q ->
      let ids = Directory.Snapshot.query_ids_ro snap q in
      Proto.Reply (dn_listing (Directory.Snapshot.instance snap) ids)

let serve_search snap ~base ~scope ~filter =
  match Bounds_query.Search.scope_of_string scope with
  | Error e -> Proto.Failed e
  | Ok scope -> (
      match Bounds_query.Filter_parser.parse filter with
      | Error e -> Proto.Failed ("filter: " ^ Parse_error.to_string e)
      | Ok filter -> (
          let inst = Directory.Snapshot.instance snap in
          let base_id =
            match base with
            | None -> Ok None
            | Some dn -> (
                match Instance.resolve_dn inst dn with
                | Some id -> Ok (Some id)
                | None -> Error (Printf.sprintf "base %S not found" dn))
          in
          match base_id with
          | Error e -> Proto.Failed e
          | Ok base ->
              let ids = Directory.Snapshot.search snap ~base scope filter in
              Proto.Reply (dn_listing inst ids)))

(* Pin first, then load the pointer — the ordering {!Epoch} relies on. *)
let with_snapshot t ~slot f =
  ignore (Epoch.pin t.epoch ~slot);
  Fun.protect
    ~finally:(fun () -> Epoch.unpin t.epoch ~slot)
    (fun () -> f (Atomic.get t.current))

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

let publish t =
  let snap = Directory.snapshot (Store.directory t.store) in
  let old = Atomic.exchange t.current snap in
  Epoch.retire t.epoch old

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
  locked t (fun () ->
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
    locked t (fun () ->
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
  locked t (fun () ->
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
      locked t (fun () ->
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
    | [] -> if not (locked t (fun () -> t.stopping)) then drain ()
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

let enqueue' t req =
  let p =
    {
      req;
      sem = Semaphore.Binary.make false;
      reply = Proto.Failed "server stopping";
      sub = None;
    }
  in
  let accepted =
    locked t (fun () ->
        if t.stopping then false
        else begin
          Queue.push p t.queue;
          Condition.signal t.nonempty;
          true
        end)
  in
  if accepted then begin
    Semaphore.Binary.acquire p.sem;
    Some p
  end
  else None

let enqueue t req =
  match enqueue' t req with
  | Some p -> p.reply
  | None -> Proto.Failed "server stopping"

(* --- connection handling ------------------------------------------------- *)

let initiate_stop t =
  let conns =
    locked t (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.nonempty;
          (* wake every feed loop so it can notice [stopping] *)
          List.iter (fun s -> Condition.broadcast s.sc) t.subs;
          t.conns
        end)
  in
  (* Wake the acceptor out of [accept] and handlers out of [recv]; the
     sockets deliver end-of-stream, the threads clean up and exit. *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns

let handle_request t ~slot = function
  | Proto.Ping -> Proto.Reply "pong"
  | Proto.Query text ->
      with_snapshot t ~slot (fun snap ->
          let r = serve_query snap text in
          locked t (fun () -> t.n_reads <- t.n_reads + 1);
          r)
  | Proto.Search { base; scope; filter } ->
      with_snapshot t ~slot (fun snap ->
          let r = serve_search snap ~base ~scope ~filter in
          locked t (fun () -> t.n_reads <- t.n_reads + 1);
          r)
  | Proto.Stats -> Proto.Reply (stats_text (stats t))
  | (Proto.Apply _ | Proto.Checkpoint) as req -> enqueue t req
  | Proto.Shutdown -> Proto.Reply "stopping"
  | Proto.Hello _ | Proto.Subscribe _ ->
      (* handled at the connection level before dispatch reaches here *)
      Proto.Failed "unexpected handshake request"

(* Drain a subscriber's queue to its socket until the server stops or
   the peer goes away (a failed send).  Runs on the connection's own
   handler thread — after [Subscribe] is granted, the connection stops
   being request/response and becomes this one-way feed. *)
let feed_loop t fd sub =
  let rec loop () =
    let items =
      locked t (fun () ->
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
              Conn.send_parts fd (Proto.stream_parts item);
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
  locked t (fun () -> t.subs <- List.filter (fun s -> s.sid <> sub.sid) t.subs)

let client_loop t fd slot =
  (* the role this connection declared in its hello, if it said one *)
  let role = ref None in
  let rec loop () =
    match Conn.recv fd with
    | Ok None | Error _ -> ()  (* clean close, torn frame: drop the conn *)
    | Ok (Some payload) -> (
        match Proto.decode_request payload with
        | Error e ->
            Conn.send_parts fd (Proto.response_parts (Proto.Failed e));
            loop ()
        | Ok (Proto.Hello { version; role = r }) ->
            if version <> Proto.version then
              (* fail fast and hang up: nothing else this peer sends
                 can be trusted to decode the same way on both ends *)
              Conn.send_parts fd
                (Proto.response_parts
                   (Proto.Failed
                      (Printf.sprintf
                         "protocol version mismatch: server %d, client %d"
                         Proto.version version)))
            else begin
              role := Some r;
              Conn.send_parts fd
                (Proto.response_parts
                   (Proto.Reply (Printf.sprintf "hello %d" Proto.version)));
              loop ()
            end
        | Ok (Proto.Subscribe { from_lsn }) ->
            if not t.replicate then begin
              Conn.send_parts fd
                (Proto.response_parts (Proto.Failed "replication not enabled"));
              loop ()
            end
            else if !role <> Some Proto.Replica then begin
              Conn.send_parts fd
                (Proto.response_parts
                   (Proto.Failed "subscribe requires a replica hello"));
              loop ()
            end
            else (
              match enqueue' t (Proto.Subscribe { from_lsn }) with
              | None ->
                  Conn.send_parts fd
                    (Proto.response_parts (Proto.Failed "server stopping"))
              | Some p -> (
                  Conn.send_parts fd (Proto.response_parts p.reply);
                  match (p.reply, p.sub) with
                  | Proto.Reply _, Some sub -> feed_loop t fd sub
                  | _ -> loop ()))
        | Ok req ->
            let resp = handle_request t ~slot req in
            Conn.send_parts fd (Proto.response_parts resp);
            if req = Proto.Shutdown then initiate_stop t else loop ())
  in
  (try loop () with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  locked t (fun () ->
      t.free_slots := slot :: !(t.free_slots);
      t.n_clients <- t.n_clients - 1;
      t.conns <- List.filter (fun (fd', _) -> fd' != fd) t.conns)

let acceptor_loop t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error _ -> ()  (* listener shut down: stop *)
    | fd, _ ->
        if locked t (fun () -> t.stopping) then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          ())
        else begin
          let slot =
            locked t (fun () ->
                match !(t.free_slots) with
                | [] -> None
                | s :: rest ->
                    t.free_slots := rest;
                    t.n_clients <- t.n_clients + 1;
                    Some s)
          in
          (match slot with
          | None ->
              (* full: refuse politely — one response frame, then close *)
              (try
                 Conn.send_parts fd (Proto.response_parts (Proto.Failed "server full"))
               with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
          | Some slot ->
              let th = Thread.create (fun () -> client_loop t fd slot) () in
              locked t (fun () -> t.conns <- (fd, th) :: t.conns));
          loop ()
        end
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(batch_max = 64)
    ?(max_clients = 64) ?(replicate = false) store =
  if batch_max < 1 then invalid_arg "Server.start: batch_max < 1";
  if max_clients < 1 then invalid_arg "Server.start: max_clients < 1";
  (* A replica killed mid-shipment leaves the feed writing into a dead
     socket; without this the resulting SIGPIPE kills the whole
     process instead of surfacing as a catchable EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 128
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let snap = Directory.snapshot (Store.directory store) in
  let t =
    {
      store;
      replicate;
      listen_fd;
      port;
      batch_max;
      current = Atomic.make snap;
      epoch = Epoch.create ~slots:max_clients;
      free_slots = ref (List.init max_clients Fun.id);
      queue = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      conns = [];
      subs = [];
      next_sid = 0;
      acceptor = None;
      writer = None;
      n_clients = 0;
      n_reads = 0;
      n_writes_ok = 0;
      n_writes_rejected = 0;
      n_batches = 0;
      n_batched = 0;
      n_max_batch = 0;
    }
  in
  if replicate then
    Store.set_ship_hook store
      (Some
         (fun item ->
           let msg =
             match item with
             | Store.Ship_txn { lsn; ops } -> Proto.Ship { lsn; ops }
             | Store.Ship_mark { lsn } -> Proto.Mark { lsn }
           in
           locked t (fun () ->
               List.iter
                 (fun sub ->
                   Queue.push msg sub.sq;
                   Condition.signal sub.sc)
                 t.subs)));
  t.writer <- Some (Thread.create writer_loop t);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let stop t = initiate_stop t

let wait t =
  Option.iter Thread.join t.acceptor;
  Option.iter Thread.join t.writer;
  let conns = locked t (fun () -> t.conns) in
  List.iter (fun (_, th) -> Thread.join th) conns;
  Store.set_ship_hook t.store None;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
