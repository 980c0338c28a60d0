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
  | Feed of Proto.response * (Unix.file_descr -> Conn.buffer -> unit)

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

type answer = (Instance.t * Entry.id list, string) result

let query_answer snap text =
  match Bounds_query.Query_parser.parse text with
  | Error e -> Error ("query: " ^ Parse_error.to_string e)
  | Ok q -> Ok (Directory.Snapshot.instance snap, Directory.Snapshot.query_ids snap q)

let search_answer snap ~base ~scope ~filter =
  let ( let* ) = Result.bind in
  let* scope = Bounds_query.Search.scope_of_string scope in
  let* filter =
    Result.map_error
      (fun e -> "filter: " ^ Parse_error.to_string e)
      (Bounds_query.Filter_parser.parse filter)
  in
  let inst = Directory.Snapshot.instance snap in
  let* base =
    match base with
    | None -> Ok None
    | Some dn -> (
        match Instance.resolve_dn inst dn with
        | Some id -> Ok (Some id)
        | None -> Error (Printf.sprintf "base %S not found" dn))
  in
  Ok (inst, Directory.Snapshot.search snap ~base scope filter)

(* The reply body, after [head]: the count, then one DN per line.  The
   producer's first call renders [head], the count and the DNs that fit
   in [limit] bytes of [o], each later call the DNs that fit next; each
   says whether any are left. *)
let listing ?(head = "") ?limit (inst, ids) =
  let first = ref true and rest = ref ids in
  fun o ->
    if !first then begin
      first := false;
      Outbuf.add_string o head;
      Outbuf.add_string o (string_of_int (List.length ids))
    end;
    rest := Instance.add_dns ?limit inst o !rest;
    !rest <> []

let reply = function
  | Error e -> Proto.Failed e
  | Ok answer ->
      let o = Outbuf.create 256 in
      ignore (listing answer o);
      Proto.Reply (Outbuf.contents o)

let serve_query snap text = reply (query_answer snap text)
let serve_search snap ~base ~scope ~filter = reply (search_answer snap ~base ~scope ~filter)

(* The listing is rendered after the verb line straight into the
   connection's frame buffer, a block at a time: the same bytes as
   [reply]'s, never a block of their size. *)
let send_answer out fd = function
  | Error e -> Conn.send_parts_with out fd (Proto.response_parts (Proto.Failed e))
  | Ok answer ->
      Conn.send_with out fd (fun () ->
          listing ~head:Proto.reply_line ~limit:(Conn.capacity out) answer)

(* Nothing is published until a replica first synchronizes; a server
   publishes before it serves. *)
let read t eval =
  match Atomic.get t.current with
  | None -> Error "replica not yet synchronized"
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

(* Every response on the connection is framed in its one buffer. *)
let connection t ~handle ~stats fd =
  let out = Conn.buffer () in
  let send r = Conn.send_parts_with out fd (Proto.response_parts r) in
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
            send_answer out fd (read t (fun snap -> query_answer snap text));
            loop role
        | Ok (Proto.Search { base; scope; filter }) ->
            send_answer out fd (read t (fun snap -> search_answer snap ~base ~scope ~filter));
            loop role
        | Ok req -> (
            match handle ~role req with
            | Reply r ->
                send r;
                loop role
            | Feed (r, feed) ->
                send r;
                feed fd out))
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
        (* A reply streamed through the connection's buffer takes
           several writes; with Nagle's algorithm the last one would
           wait for the client's delayed acknowledgement (~40 ms). *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
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
