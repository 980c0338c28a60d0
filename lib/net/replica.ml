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

   The read side is the same {!Front} end the primary serves through:
   queries and searches evaluated lock-free against the current
   snapshot.  Writes are refused — the feed is the only write
   surface. *)

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
}

type t = {
  io : Io.t;
  primary_host : string;
  primary_port : int;
  front : Front.t;
  m : Mutex.t;
  sleep : (float -> unit) option;  (* injectable for deterministic tests *)
  mutable store : Store.t option;  (* owned by the feeder thread *)
  mutable primary : Client.t option;  (* live primary connection *)
  mutable stopping : bool;
  mutable feeder : Thread.t option;
  (* feed progress, guarded by [m] (plain ints — readers only report) *)
  mutable applied_lsn : int;
  mutable shipped_lsn : int;
  mutable connected : bool;
  mutable n_reconnects : int;
  mutable n_boots : int;
  mutable recovered : string;
  mutable last_error : string;
}

let port t = Front.port t.front

let stats t =
  let clients = Front.clients t.front in
  Mutex.protect t.m (fun () ->
      {
        clients;
        reads = Front.reads t.front;
        applied_lsn = t.applied_lsn;
        shipped_lsn = t.shipped_lsn;
        connected = t.connected;
        reconnects = t.n_reconnects;
        boots = t.n_boots;
        recovered = t.recovered;
        last_error = t.last_error;
        snapshots_retired = Front.retired t.front;
      })

let stats_text s =
  Printf.sprintf
    "clients %d\nreads %d\napplied_lsn %d\nshipped_lsn %d\nlag %d\n\
     connected %b\nreconnects %d\nboots %d\nrecovered %s\nlast_error %s\n\
     snapshots_retired %d"
    s.clients s.reads s.applied_lsn s.shipped_lsn
    (max 0 (s.shipped_lsn - s.applied_lsn))
    s.connected s.reconnects s.boots s.recovered
    (if s.last_error = "" then "-" else s.last_error)
    s.snapshots_retired

(* --- feed side ----------------------------------------------------------- *)

let publish t store =
  Front.publish t.front (Directory.snapshot (Store.directory store))

(* Interruptible pause: chop real sleeps so [stop] is never stuck
   behind a full backoff delay.  An injected [sleep] receives the whole
   delay in one call — the deterministic tests record the schedule. *)
let pause t d =
  match t.sleep with
  | Some f -> f d
  | None ->
      let rec nap r =
        if r > 0. && not (Mutex.protect t.m (fun () -> t.stopping)) then begin
          Unix.sleepf (min 0.05 r);
          nap (r -. 0.05)
        end
      in
      nap d

let fail t msg = Mutex.protect t.m (fun () -> t.last_error <- msg)

(* One request/response exchange on the primary connection (the feed
   protocol starts as ordinary request/response before it goes
   one-way); a [Failed] reply is an [Error] of its message. *)
let exchange c req =
  match Client.request c req with
  | Ok (Proto.Reply body) -> Ok body
  | Ok (Proto.Failed msg) -> Error msg
  | Error _ as e -> e

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
          Mutex.protect t.m (fun () ->
              t.n_boots <- t.n_boots + 1;
              t.applied_lsn <- lsn;
              t.shipped_lsn <- max t.shipped_lsn lsn;
              t.recovered <- Front.recovered_line (Some report));
          publish t s;
          Ok ())

(* Drain the feed until the connection drops or the daemon stops.
   [`Reboot] means the stream and our store disagree (lsn gap,
   unappliable record, undecodable message): drop the connection and
   re-subscribe from -1 for a fresh bootstrap. *)
let drain t fd =
  let rec loop () =
    if Mutex.protect t.m (fun () -> t.stopping) then `Stop
    else
      match Conn.recv fd with
      | Ok None -> `Reconnect  (* primary closed cleanly *)
      | Error _ -> `Reconnect  (* torn mid-frame: same recovery path *)
      | exception Unix.Unix_error _ -> `Reconnect
      | Ok (Some payload) -> (
          match Proto.decode_stream payload with
          | Error e -> `Reboot ("stream: " ^ e)
          | Ok (Proto.Ship { lsn; ops }) -> (
              Mutex.protect t.m (fun () -> t.shipped_lsn <- max t.shipped_lsn lsn);
              match t.store with
              | None -> `Reboot "shipped record before any bootstrap"
              | Some s -> (
                  match Store.replica_apply s ~lsn ops with
                  | Ok `Applied ->
                      Mutex.protect t.m (fun () -> t.applied_lsn <- lsn);
                      publish t s;
                      loop ()
                  | Ok `Duplicate -> loop ()
                  | Error e -> `Reboot e))
          | Ok (Proto.Mark { lsn = _ }) ->
              (* fold our own log on the primary's compaction beat *)
              (match t.store with Some s -> Store.checkpoint s | None -> ());
              loop ()
          | Ok (Proto.Boot { lsn; schema; checkpoint }) -> (
              Mutex.protect t.m (fun () -> t.shipped_lsn <- max t.shipped_lsn lsn);
              match install_boot t ~lsn ~schema ~checkpoint with
              | Ok () -> loop ()
              | Error e -> `Reboot e))
  in
  loop ()

let feeder_loop t =
  let attempt = ref 0 in
  let force_boot = ref false in
  let fatal = ref false in
  while not (Mutex.protect t.m (fun () -> t.stopping)) && not !fatal do
    if !attempt > 0 then pause t (backoff ~attempt:(!attempt - 1));
    if not (Mutex.protect t.m (fun () -> t.stopping)) then begin
      incr attempt;
      match Client.connect ~host:t.primary_host ~port:t.primary_port ~hello:false () with
      | Error e ->
          fail t e;
          Mutex.protect t.m (fun () -> t.n_reconnects <- t.n_reconnects + 1)
      | Ok c -> (
          Mutex.protect t.m (fun () -> t.primary <- Some c);
          let close () =
            Mutex.protect t.m (fun () ->
                t.primary <- None;
                t.connected <- false);
            Client.close c
          in
          match
            exchange c
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
              match exchange c (Proto.Subscribe { from_lsn }) with
              | Error e ->
                  fail t ("subscribe: " ^ e);
                  close ();
                  Mutex.protect t.m (fun () -> t.n_reconnects <- t.n_reconnects + 1)
              | Ok _ -> (
                  attempt := 0;
                  force_boot := false;
                  Mutex.protect t.m (fun () -> t.connected <- true);
                  let outcome = drain t (Client.fd c) in
                  close ();
                  match outcome with
                  | `Stop -> ()
                  | `Reconnect ->
                      fail t "feed connection lost";
                      Mutex.protect t.m (fun () -> t.n_reconnects <- t.n_reconnects + 1)
                  | `Reboot e ->
                      fail t e;
                      force_boot := true;
                      Mutex.protect t.m (fun () ->
                          t.n_reconnects <- t.n_reconnects + 1))))
    end
  done

(* --- lifecycle ------------------------------------------------------------ *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(max_clients = 16) ?sleep
    ?(primary_host = "127.0.0.1") ~primary_port io =
  if max_clients < 1 then invalid_arg "Replica.start: max_clients < 1";
  let t =
    {
      io;
      primary_host;
      primary_port;
      front = Front.listen ~host ~port ~max_clients;
      m = Mutex.create ();
      sleep;
      store = None;
      primary = None;
      stopping = false;
      feeder = None;
      applied_lsn = -1;
      shipped_lsn = -1;
      connected = false;
      n_reconnects = 0;
      n_boots = 0;
      recovered = Front.recovered_line None;
      last_error = "";
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
        t.recovered <- Front.recovered_line (Some report);
        publish t s
    | Error e -> t.last_error <- "open: " ^ Store.error_to_string e
  end;
  t.feeder <- Some (Thread.create feeder_loop t);
  Front.serve t.front
    ~handle:(fun ~role:_ _ -> Front.Reply (Proto.Failed "read-only replica"))
    ~stats:(fun () -> stats_text (stats t))
    ~wake:(fun () ->
      (* the feeder may sit in [recv] on the primary's socket; under
         [m], which it holds to give the socket up before closing it *)
      Mutex.protect t.m (fun () ->
          t.stopping <- true;
          Option.iter
            (fun c ->
              try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            t.primary));
  t

let stop t = Front.stop t.front

let wait t =
  Front.wait t.front;
  Option.iter Thread.join t.feeder;
  (match t.store with Some s -> Store.close s | None -> ());
  t.store <- None
