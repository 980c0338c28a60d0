(* Blocking client for the directory server: one connection, one
   request/response in flight at a time.  Failures come back as
   [Error] strings — a client must survive a dying server. *)

type t = { fd : Unix.file_descr; mutable closed : bool }

(* Version handshake: declare who we are, fail fast if the server
   speaks a different protocol revision.  Servers predating the hello
   verb answer unknown requests with [Failed], which lands here as a
   mismatch too — exactly the right outcome. *)
let shake fd role =
  match Conn.send fd (Proto.encode_request (Hello { version = Proto.version; role })) with
  | exception Unix.Unix_error (err, _, _) ->
      Error ("hello: " ^ Unix.error_message err)
  | () -> (
      match Conn.recv_or_error fd with
      | exception Unix.Unix_error (err, _, _) ->
          Error ("hello: " ^ Unix.error_message err)
      | Error e -> Error ("hello: " ^ e)
      | Ok payload -> (
          match Proto.decode_response payload with
          | Ok (Reply _) -> Ok ()
          | Ok (Failed msg) -> Error ("hello rejected: " ^ msg)
          | Error e -> Error ("hello: " ^ e)))

let connect ?(host = "127.0.0.1") ~port ?(retries = 0) ?(hello = true)
    ?(role = Proto.Reader) () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        if not hello then Ok { fd; closed = false }
        else (
          match shake fd role with
          | Ok () -> Ok { fd; closed = false }
          | Error e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error e)
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if attempt < retries then begin
          (* daemon may still be binding: back off briefly and retry *)
          Unix.sleepf 0.05;
          go (attempt + 1)
        end
        else
          Error
            (Printf.sprintf "connect %s:%d: %s" host port
               (Unix.error_message err))
  in
  go 0

let fd t = t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let request t req =
  if t.closed then Error "client closed"
  else
    match Conn.send t.fd (Proto.encode_request req) with
    | exception Unix.Unix_error (err, _, _) ->
        Error ("send: " ^ Unix.error_message err)
    | () -> (
        match Conn.recv_or_error t.fd with
        | exception Unix.Unix_error (err, _, _) ->
            (* e.g. ECONNRESET when the server hung up with our request
               still unread — a failed exchange, not a caller crash *)
            Error ("recv: " ^ Unix.error_message err)
        | Error _ as e -> e
        | Ok payload -> Proto.decode_response payload)

(* Convenience: collapse transport and protocol failure into one
   string, for callers that only care about success. *)
let request_exn t req =
  match request t req with
  | Ok resp -> resp
  | Error e -> failwith ("request: " ^ e)
