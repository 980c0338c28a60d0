(* The replica daemon: a read-only directory server fed by WAL
   shipment from a primary.

   One {e feeder} thread owns the replica's store.  It connects to the
   primary, says hello as a replica, subscribes from its last durable
   lsn, and applies every shipped record through the trusted replay
   path ({!Store.replica_apply} — the record passed admission when the
   primary acknowledged it, and the frame CRC vouches the bytes are
   unchanged, so legality is not re-checked).  After each applied
   record it publishes a fresh snapshot, so the read side serves
   monotonically advancing, transaction-consistent views.  Dropped
   connections reconnect with exponential backoff, resuming from the
   durable lsn — overlap is skipped by the lsn discipline, a gap or an
   unappliable record forces a fresh bootstrap (subscribe from -1, the
   primary answers with a snapshot package).

   The read side mirrors the primary server's: an acceptor plus one
   handler thread per connection, queries and searches evaluated
   lock-free against the current snapshot under {!Epoch} pinning.
   Writes are refused — the feed is the only write surface. *)

open Bounds_core
module Store = Bounds_store.Store
module Io = Bounds_store.Io

(* Reconnect delay before attempt [n] (0-based): 0.05 s doubling to a
   2 s ceiling — 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2, 2, …  Pure, so the
   test suite checks the schedule without a clock. *)
let backoff ~attempt = min 2.0 (0.05 *. (2. ** float_of_int attempt))

type stats = {
  clients : int;  (** read connections currently served *)
  reads : int;
  applied_lsn : int;  (** last lsn applied to the replica's store *)
  shipped_lsn : int;  (** last lsn seen on the feed (lag = shipped − applied) *)
  connected : bool;  (** a subscription is live right now *)
  reconnects : int;  (** connections lost or refused since start *)
  boots : int;  (** snapshot bootstraps installed *)
  recovered : string;  (** how the replica's own store recovered *)
  last_error : string;  (** most recent feed failure ("" if none) *)
  snapshots_retired : int;
  snapshots_pending : int;
}

type t = {
  io : Io.t;
  primary_host : string;
  primary_port : int;
  listen_fd : Unix.file_descr;
  port : int;
  current : Directory.Snapshot.t option Atomic.t;
  epoch : Directory.Snapshot.t Epoch.t;
  free_slots : int list ref;  (* guarded by [m] *)
  m : Mutex.t;
  sleep : (float -> unit) option;  (* injectable for deterministic tests *)
  mutable store : Store.t option;  (* owned by the feeder thread *)
  mutable pfd : Unix.file_descr option;  (* live primary connection *)
  mutable stopping : bool;
  mutable conns : (Unix.file_descr * Thread.t) list;  (* guarded by [m] *)
  mutable feeder : Thread.t option;
  mutable acceptor : Thread.t option;
  (* feed progress, guarded by [m] (plain ints — readers only report) *)
  mutable applied_lsn : int;
  mutable shipped_lsn : int;
  mutable connected : bool;
  mutable n_reconnects : int;
  mutable n_boots : int;
  mutable recovered : string;
  mutable last_error : string;
  mutable n_clients : int;
  mutable n_reads : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let port t = t.port

let stats t =
  locked t (fun () ->
      {
        clients = t.n_clients;
        reads = t.n_reads;
        applied_lsn = t.applied_lsn;
        shipped_lsn = t.shipped_lsn;
        connected = t.connected;
        reconnects = t.n_reconnects;
        boots = t.n_boots;
        recovered = t.recovered;
        last_error = t.last_error;
        snapshots_retired = Epoch.retired t.epoch;
        snapshots_pending = Epoch.pending t.epoch;
      })

let stats_text s =
  Printf.sprintf
    "clients %d\nreads %d\napplied_lsn %d\nshipped_lsn %d\nlag %d\n\
     connected %b\nreconnects %d\nboots %d\nrecovered %s\nlast_error %s\n\
     snapshots_retired %d\nsnapshots_pending %d"
    s.clients s.reads s.applied_lsn s.shipped_lsn
    (max 0 (s.shipped_lsn - s.applied_lsn))
    s.connected s.reconnects s.boots s.recovered
    (if s.last_error = "" then "-" else s.last_error)
    s.snapshots_retired s.snapshots_pending

(* --- feed side ----------------------------------------------------------- *)

let tail_line = function
  | Store.Clean -> None
  | Store.Recovered_at { offset; reason } ->
      Some (Printf.sprintf "recovered_at %d (%s)" offset reason)

let report_line (r : Store.report) =
  match
    List.filter_map Fun.id
      [
        Option.map (( ^ ) "delta ") (tail_line r.delta_tail);
        Option.map (( ^ ) "wal ") (tail_line r.tail);
      ]
  with
  | [] -> "clean"
  | l -> String.concat "; " l

let publish t store =
  let snap = Directory.snapshot (Store.directory store) in
  match Atomic.exchange t.current (Some snap) with
  | None -> ()
  | Some old -> Epoch.retire t.epoch old

(* Interruptible pause: chop real sleeps so [stop] is never stuck
   behind a full backoff delay.  An injected [sleep] receives the whole
   delay in one call — the deterministic tests record the schedule. *)
let pause t d =
  match t.sleep with
  | Some f -> f d
  | None ->
      let rec nap r =
        if r > 0. && not (locked t (fun () -> t.stopping)) then begin
          Unix.sleepf (min 0.05 r);
          nap (r -. 0.05)
        end
      in
      nap d

let fail t msg = locked t (fun () -> t.last_error <- msg)

(* One request/response exchange on the primary connection (the feed
   protocol starts as ordinary request/response before it goes
   one-way). *)
let exchange fd req =
  match Conn.send fd (Proto.encode_request req) with
  | exception Unix.Unix_error (err, _, _) ->
      Error ("send: " ^ Unix.error_message err)
  | () -> (
      match Conn.recv_or_error fd with
      | exception Unix.Unix_error (err, _, _) ->
          Error ("recv: " ^ Unix.error_message err)
      | Error _ as e -> e
      | Ok payload -> (
          match Proto.decode_response payload with
          | Ok (Proto.Reply body) -> Ok body
          | Ok (Proto.Failed msg) -> Error msg
          | Error e -> Error e))

let connect_primary t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string t.primary_host, t.primary_port))
  with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s:%d: %s" t.primary_host t.primary_port
           (Unix.error_message err))

(* Install a shipped bootstrap package: close whatever store we had,
   write the snapshot as a fresh store directory, re-open it through
   the trusted path, publish. *)
let install_boot t ~lsn ~schema ~checkpoint =
  (match t.store with Some s -> Store.close s | None -> ());
  t.store <- None;
  match Store.install_snapshot t.io ~schema ~checkpoint with
  | Error e -> Error ("bootstrap: " ^ e)
  | Ok () -> (
      match Store.open_ t.io with
      | Error e -> Error ("bootstrap reopen: " ^ Store.error_to_string e)
      | Ok (s, report) ->
          t.store <- Some s;
          locked t (fun () ->
              t.n_boots <- t.n_boots + 1;
              t.applied_lsn <- lsn;
              t.shipped_lsn <- max t.shipped_lsn lsn;
              t.recovered <- report_line report);
          publish t s;
          Ok ())

(* Drain the feed until the connection drops or the daemon stops.
   [`Reboot] means the stream and our store disagree (lsn gap,
   unappliable record, undecodable message): drop the connection and
   re-subscribe from -1 for a fresh bootstrap. *)
let drain t fd =
  let rec loop () =
    if locked t (fun () -> t.stopping) then `Stop
    else
      match Conn.recv fd with
      | Ok None -> `Reconnect  (* primary closed cleanly *)
      | Error _ -> `Reconnect  (* torn mid-frame: same recovery path *)
      | exception Unix.Unix_error _ -> `Reconnect
      | Ok (Some payload) -> (
          match Proto.decode_stream payload with
          | Error e -> `Reboot ("stream: " ^ e)
          | Ok (Proto.Ship { lsn; ops }) -> (
              locked t (fun () -> t.shipped_lsn <- max t.shipped_lsn lsn);
              match t.store with
              | None -> `Reboot "shipped record before any bootstrap"
              | Some s -> (
                  match Store.replica_apply s ~lsn ops with
                  | Ok `Applied ->
                      locked t (fun () -> t.applied_lsn <- lsn);
                      publish t s;
                      loop ()
                  | Ok `Duplicate -> loop ()
                  | Error e -> `Reboot e))
          | Ok (Proto.Mark { lsn = _ }) ->
              (* fold our own log on the primary's compaction beat *)
              (match t.store with Some s -> Store.checkpoint s | None -> ());
              loop ()
          | Ok (Proto.Boot { lsn; schema; checkpoint }) -> (
              locked t (fun () -> t.shipped_lsn <- max t.shipped_lsn lsn);
              match install_boot t ~lsn ~schema ~checkpoint with
              | Ok () -> loop ()
              | Error e -> `Reboot e))
  in
  loop ()

let feeder_loop t =
  let attempt = ref 0 in
  let force_boot = ref false in
  let fatal = ref false in
  while not (locked t (fun () -> t.stopping)) && not !fatal do
    if !attempt > 0 then pause t (backoff ~attempt:(!attempt - 1));
    if not (locked t (fun () -> t.stopping)) then begin
      incr attempt;
      match connect_primary t with
      | Error e ->
          fail t e;
          locked t (fun () -> t.n_reconnects <- t.n_reconnects + 1)
      | Ok fd -> (
          locked t (fun () -> t.pfd <- Some fd);
          let close () =
            locked t (fun () ->
                t.pfd <- None;
                t.connected <- false);
            try Unix.close fd with Unix.Unix_error _ -> ()
          in
          match
            exchange fd
              (Proto.Hello { version = Proto.version; role = Proto.Replica })
          with
          | Error e ->
              (* a version mismatch cannot heal by retrying: stop the
                 feed and surface the reason through stats *)
              fail t ("hello: " ^ e);
              close ();
              fatal := true
          | Ok _ -> (
              let from_lsn =
                if !force_boot then -1
                else match t.store with Some s -> Store.lsn s | None -> -1
              in
              match exchange fd (Proto.Subscribe { from_lsn }) with
              | Error e ->
                  fail t ("subscribe: " ^ e);
                  close ();
                  locked t (fun () -> t.n_reconnects <- t.n_reconnects + 1)
              | Ok _ -> (
                  attempt := 0;
                  force_boot := false;
                  locked t (fun () -> t.connected <- true);
                  let outcome = drain t fd in
                  close ();
                  match outcome with
                  | `Stop -> ()
                  | `Reconnect ->
                      fail t "feed connection lost";
                      locked t (fun () -> t.n_reconnects <- t.n_reconnects + 1)
                  | `Reboot e ->
                      fail t e;
                      force_boot := true;
                      locked t (fun () -> t.n_reconnects <- t.n_reconnects + 1))))
    end
  done

(* --- read side ------------------------------------------------------------ *)

let with_snapshot t ~slot f =
  ignore (Epoch.pin t.epoch ~slot);
  Fun.protect
    ~finally:(fun () -> Epoch.unpin t.epoch ~slot)
    (fun () ->
      match Atomic.get t.current with
      | None -> Proto.Failed "replica not yet synchronized"
      | Some snap -> f snap)

let initiate_stop t =
  let to_shutdown =
    locked t (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          let fds = List.map fst t.conns in
          match t.pfd with Some fd -> fd :: fds | None -> fds
        end)
  in
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    to_shutdown

let handle_request t ~slot = function
  | Proto.Ping -> Proto.Reply "pong"
  | Proto.Query text ->
      with_snapshot t ~slot (fun snap ->
          let r = Server.serve_query snap text in
          locked t (fun () -> t.n_reads <- t.n_reads + 1);
          r)
  | Proto.Search { base; scope; filter } ->
      with_snapshot t ~slot (fun snap ->
          let r = Server.serve_search snap ~base ~scope ~filter in
          locked t (fun () -> t.n_reads <- t.n_reads + 1);
          r)
  | Proto.Stats -> Proto.Reply (stats_text (stats t))
  | Proto.Apply _ | Proto.Checkpoint | Proto.Subscribe _ ->
      Proto.Failed "read-only replica"
  | Proto.Shutdown -> Proto.Reply "stopping"
  | Proto.Hello _ -> Proto.Failed "unexpected handshake request"

let client_loop t fd slot =
  let rec loop () =
    match Conn.recv fd with
    | Ok None | Error _ -> ()
    | Ok (Some payload) -> (
        match Proto.decode_request payload with
        | Error e ->
            Conn.send_parts fd (Proto.response_parts (Proto.Failed e));
            loop ()
        | Ok (Proto.Hello { version; role = _ }) ->
            if version <> Proto.version then
              Conn.send_parts fd
                (Proto.response_parts
                   (Proto.Failed
                      (Printf.sprintf
                         "protocol version mismatch: server %d, client %d"
                         Proto.version version)))
            else begin
              Conn.send_parts fd
                (Proto.response_parts
                   (Proto.Reply (Printf.sprintf "hello %d" Proto.version)));
              loop ()
            end
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
    | exception Unix.Unix_error _ -> ()
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

(* --- lifecycle ------------------------------------------------------------ *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(max_clients = 16) ?sleep
    ?(primary_host = "127.0.0.1") ~primary_port io =
  if max_clients < 1 then invalid_arg "Replica.start: max_clients < 1";
  (* same rationale as Server.start: a peer dying mid-write must
     surface as EPIPE, not kill the daemon *)
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
  let t =
    {
      io;
      primary_host;
      primary_port;
      listen_fd;
      port;
      current = Atomic.make None;
      epoch = Epoch.create ~slots:max_clients;
      free_slots = ref (List.init max_clients Fun.id);
      m = Mutex.create ();
      sleep;
      store = None;
      pfd = None;
      stopping = false;
      conns = [];
      feeder = None;
      acceptor = None;
      applied_lsn = -1;
      shipped_lsn = -1;
      connected = false;
      n_reconnects = 0;
      n_boots = 0;
      recovered = "fresh";
      last_error = "";
      n_clients = 0;
      n_reads = 0;
    }
  in
  (* Recover any store a previous incarnation left behind, so reads
     are served (and the subscription resumes from the durable lsn)
     before the primary is even reachable.  A store too damaged to
     open just means the first subscription bootstraps. *)
  if Store.exists io then begin
    match Store.open_ io with
    | Ok (s, report) ->
        t.store <- Some s;
        t.applied_lsn <- Store.lsn s;
        t.shipped_lsn <- Store.lsn s;
        t.recovered <- report_line report;
        publish t s
    | Error e -> t.last_error <- "open: " ^ Store.error_to_string e
  end;
  t.feeder <- Some (Thread.create feeder_loop t);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let stop t = initiate_stop t

let wait t =
  Option.iter Thread.join t.acceptor;
  Option.iter Thread.join t.feeder;
  let conns = locked t (fun () -> t.conns) in
  List.iter (fun (_, th) -> Thread.join th) conns;
  (match t.store with Some s -> Store.close s | None -> ());
  t.store <- None;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
