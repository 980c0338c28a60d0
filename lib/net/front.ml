(* The wire front end of both daemons.

   Threads (systhreads): one acceptor owns the listening socket and
   spawns a handler thread per connection, up to [max_clients].  Every
   live connection sits in [conns], keyed by its socket.  A handler
   removes its entry and closes its socket under [m], and [stop] shuts
   the registered sockets down under [m] too, so [stop] never touches a
   descriptor number that has been closed and reused. *)

open Bounds_model
open Bounds_core
module Store = Bounds_store.Store

type outcome =
  | Reply of Proto.response
  | Feed of Proto.response * (Unix.file_descr -> unit)

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  max_clients : int;
  current : Directory.Snapshot.t option Atomic.t;
  retired : int Atomic.t;
  reads : int Atomic.t;
  m : Mutex.t;
  conns : (Unix.file_descr, Thread.t) Hashtbl.t;  (* guarded by [m] *)
  mutable stopping : bool;  (* guarded by [m] *)
  mutable wake : unit -> unit;
  mutable acceptor : Thread.t option;
}

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let listen ~host ~port ~max_clients =
  (* A replica killed mid-shipment leaves a feed writing into a dead
     socket; without this the resulting SIGPIPE kills the whole process
     instead of surfacing as a catchable EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     close fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  {
    listen_fd = fd;
    port;
    max_clients;
    current = Atomic.make None;
    retired = Atomic.make 0;
    reads = Atomic.make 0;
    m = Mutex.create ();
    conns = Hashtbl.create 16;
    stopping = false;
    wake = ignore;
    acceptor = None;
  }

let port t = t.port
let clients t = Mutex.protect t.m (fun () -> Hashtbl.length t.conns)
let reads t = Atomic.get t.reads
let retired t = Atomic.get t.retired

let publish t snap =
  if Option.is_some (Atomic.exchange t.current (Some snap)) then
    Atomic.incr t.retired

(* --- read evaluation ------------------------------------------------------ *)

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

(* Nothing is published until a replica first synchronizes; a server
   publishes before it serves. *)
let read t eval =
  match Atomic.get t.current with
  | None -> Proto.Failed "replica not yet synchronized"
  | Some snap ->
      let r = eval snap in
      Atomic.incr t.reads;
      r

let recovered_line = function
  | None -> "fresh"
  | Some { Store.tail = Store.Clean; _ } -> "clean"
  | Some { Store.tail = Store.Recovered_at { offset; reason }; _ } ->
      Printf.sprintf "wal recovered_at %d (%s)" offset reason

(* --- connections ---------------------------------------------------------- *)

let stop t =
  let first =
    Mutex.protect t.m (fun () ->
        let first = not t.stopping in
        if first then begin
          t.stopping <- true;
          (* wake handlers out of [recv]: their sockets deliver
             end-of-stream and the threads clean up and exit *)
          Hashtbl.iter (fun fd _ -> shutdown fd) t.conns
        end;
        first)
  in
  if first then begin
    t.wake ();
    (* and the acceptor out of [accept] *)
    shutdown t.listen_fd
  end

let connection t ~handle ~stats fd =
  let send r = Conn.send_parts fd (Proto.response_parts r) in
  let rec loop role =
    match Conn.recv fd with
    | Ok None | Error _ -> ()  (* clean close, torn frame: drop the conn *)
    | Ok (Some payload) -> (
        match Proto.decode_request payload with
        | Error e ->
            send (Proto.Failed e);
            loop role
        | Ok (Proto.Hello { version; role = declared }) ->
            if version <> Proto.version then
              (* fail fast and hang up: nothing else this peer sends
                 can be trusted to decode the same way on both ends *)
              send
                (Proto.Failed
                   (Printf.sprintf
                      "protocol version mismatch: server %d, client %d"
                      Proto.version version))
            else begin
              send (Proto.Reply (Printf.sprintf "hello %d" Proto.version));
              loop declared
            end
        | Ok Proto.Ping ->
            send (Proto.Reply "pong");
            loop role
        | Ok Proto.Stats ->
            send (Proto.Reply (stats ()));
            loop role
        | Ok Proto.Shutdown ->
            send (Proto.Reply "stopping");
            stop t
        | Ok (Proto.Query text) ->
            send (read t (fun snap -> serve_query snap text));
            loop role
        | Ok (Proto.Search { base; scope; filter }) ->
            send (read t (fun snap -> serve_search snap ~base ~scope ~filter));
            loop role
        | Ok req -> (
            match handle ~role req with
            | Reply r ->
                send r;
                loop role
            | Feed (r, feed) ->
                send r;
                feed fd))
  in
  (try loop Proto.Reader with Unix.Unix_error _ -> ());
  Mutex.protect t.m (fun () ->
      Hashtbl.remove t.conns fd;
      close fd)

let accept_loop t ~handle ~stats =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error (err, _, _) ->
        (* only [stop] ends the acceptor; out of descriptors, wait for a
           handler to close one *)
        if not (Mutex.protect t.m (fun () -> t.stopping)) then begin
          if err = Unix.EMFILE || err = Unix.ENFILE then Thread.delay 0.05;
          loop ()
        end
    | fd, _ -> (
        match
          Mutex.protect t.m (fun () ->
              if t.stopping then `Stopping
              else if Hashtbl.length t.conns >= t.max_clients then `Full
              else begin
                (* registered before [m] is released, and the handler
                   takes [m] to deregister: its entry always exists
                   by the time it leaves *)
                Hashtbl.replace t.conns fd
                  (Thread.create (connection t ~handle ~stats) fd);
                `Served
              end)
        with
        | `Stopping -> close fd
        | `Full ->
            (* refuse politely: one response frame, then close *)
            (try Conn.send_parts fd (Proto.response_parts (Proto.Failed "server full"))
             with Unix.Unix_error _ -> ());
            close fd;
            loop ()
        | `Served -> loop ())
  in
  loop ()

let serve t ~handle ~stats ~wake =
  t.wake <- wake;
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t ~handle ~stats) ())

let wait t =
  Option.iter Thread.join t.acceptor;
  (* no connection registers after the acceptor is gone; a handler
     missing from this list has already closed its socket *)
  List.iter Thread.join
    (Mutex.protect t.m (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.conns []));
  close t.listen_fd
