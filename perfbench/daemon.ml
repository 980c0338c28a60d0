(* The real [ldapschema serve] daemon as a child process, and the few
   wire calls the orchestration needs. *)

module Conn = Bounds_net.Conn
module Proto = Bounds_net.Proto

type t = { pid : int; port : int; out : in_channel }

(* Every child still running; killed and reaped on any exit path. *)
let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

(* "[ready]127.0.0.1:PORT (...)" -> PORT *)
let port_of ~ready line =
  if not (String.starts_with ~prefix:ready line) then None
  else
    let rest = String.sub line (String.length ready) (String.length line - String.length ready) in
    match String.index_opt rest ':' with
    | None -> None
    | Some i ->
        Scanf.sscanf_opt (String.sub rest (i + 1) (String.length rest - i - 1)) "%d" Fun.id

(* Spawn [exe args] and block until it prints its [ready] line: the
   daemon prints it once its store is recovered and the socket is
   bound, so a blocking read is the readiness signal — no polling. *)
let spawn ~exe ~ready args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec await () =
    match In_channel.input_line out with
    | None -> failwith (String.concat " " (exe :: args) ^ ": exited before listening")
    | Some line -> ( match port_of ~ready line with Some p -> p | None -> await ())
  in
  let port = await () in
  { pid; port; out }

let serve ~exe ~store =
  spawn ~exe ~ready:"listening on " [ "serve"; store; "--port"; "0"; "--replicate" ]

(* One request/response exchange on a connection. *)
let exchange fd req =
  Conn.send fd (Proto.encode_request req);
  match Conn.recv_or_error fd with
  | Ok payload -> Proto.decode_response payload
  | Error e -> Error e

let request fd req =
  match exchange fd req with
  | Ok (Proto.Reply body) -> body
  | Ok (Proto.Failed e) -> failwith (Proto.request_verb req ^ " failed: " ^ e)
  | Error e -> failwith (Proto.request_verb req ^ ": " ^ e)

(* A connection past the protocol handshake.  The load generator drives
   the raw descriptor itself, several at a time. *)
let connect t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  ignore (request fd (Proto.Hello { version = Proto.version; role = Proto.Reader }));
  fd

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One integer field of a [stats] reply ("name value" lines). *)
let stat c name =
  let body = request c Proto.Stats in
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ k; v ] when k = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' body)
  |> function
  | Some v -> v
  | None -> failwith ("stats: no " ^ name)

(* Peak resident set of a live child, MiB. *)
let peak_rss_mb t =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kib -> float_of_int kib /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Ask for a clean shutdown over the wire and wait for the exit. *)
let stop t =
  (match connect t with
  | fd ->
      ignore (exchange fd Proto.Shutdown);
      close fd
  | exception (Unix.Unix_error _ | Failure _) -> (
      try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (In_channel.input_all t.out);
  close_in t.out;
  reap t.pid
