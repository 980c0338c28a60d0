(* Wire protocol of the directory server: one request or response per
   CRC frame (see {!Conn}), the payload a small line-oriented text —
   verb on the first line, operands on the rest.  Decoding is total:
   unknown verbs and missing operands come back as [Error], never an
   exception, so a confused peer cannot take the server down.

   Replication rides the same framing: a subscriber sends [Hello] and
   [Subscribe] as ordinary requests, after which the server turns the
   connection into a one-way feed of {!stream} messages (shipped
   records are the {!Bounds_store.Codec} bytes that sit in the WAL —
   the wire and the log share one transaction encoding). *)

open Bounds_model
module Codec = Bounds_store.Codec

(* Bump on any wire-visible change: peers compare it in the hello
   handshake and fail fast instead of mis-decoding each other. *)
let version = 1

type role = Reader | Replica

type request =
  | Ping
  | Query of string  (* hierarchical selection query text *)
  | Search of { base : string option; scope : string; filter : string }
  | Apply of string  (* LDIF change records *)
  | Stats
  | Checkpoint
  | Shutdown
  | Hello of { version : int; role : role }
  | Subscribe of { from_lsn : int }

type response = Reply of string | Failed of string

type stream =
  | Ship of { lsn : int; ops : Update.op list }
  | Mark of { lsn : int }
  | Boot of { lsn : int; schema : string; checkpoint : string }

(* --- encoding ----------------------------------------------------------- *)

let role_to_string = function Reader -> "reader" | Replica -> "replica"

let role_of_string = function
  | "reader" -> Ok Reader
  | "replica" -> Ok Replica
  | other -> Error (Printf.sprintf "unknown role %S" other)

let encode_request = function
  | Ping -> "ping"
  | Query q -> "query\n" ^ q
  | Search { base; scope; filter } ->
      String.concat "\n"
        [ "search"; scope; Option.value ~default:"" base; filter ]
  | Apply text -> "apply\n" ^ text
  | Stats -> "stats"
  | Checkpoint -> "checkpoint"
  | Shutdown -> "shutdown"
  | Hello { version; role } ->
      Printf.sprintf "hello %d %s" version (role_to_string role)
  | Subscribe { from_lsn } -> Printf.sprintf "subscribe %d" from_lsn

(* A message is its verb line, then its body: the parts are copied
   into a frame as they are ({!Conn}), and the [encode_*] forms are the
   parts concatenated. *)
let reply_line = "ok\n"

let response_parts = function
  | Reply body -> [ reply_line; body ]
  | Failed msg -> [ "err\n"; msg ]

let encode_response r = String.concat "" (response_parts r)

let stream_parts = function
  | Ship { lsn; ops } -> [ "ship\n"; Codec.encode_txn ~lsn ops ]
  | Mark { lsn } -> [ Printf.sprintf "mark %d" lsn ]
  | Boot { lsn; schema; checkpoint } ->
      (* the verb line carries the schema's byte length so the decoder
         can split the raw rest into schema text and checkpoint blob *)
      [ Printf.sprintf "boot %d %d\n" lsn (String.length schema); schema; checkpoint ]

let encode_stream s = String.concat "" (stream_parts s)

(* --- decoding ----------------------------------------------------------- *)

(* first line, rest-after-newline ("" when there is no rest) *)
let cut s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let decode_request payload =
  let verb, rest = cut payload in
  match String.split_on_char ' ' verb with
  | [ "ping" ] -> Ok Ping
  | [ "query" ] -> Ok (Query rest)
  | [ "search" ] ->
      let scope, rest = cut rest in
      let base, filter = cut rest in
      if scope = "" || filter = "" then
        Error "search needs scope, base (may be empty) and filter lines"
      else
        Ok
          (Search
             { base = (if base = "" then None else Some base); scope; filter })
  | [ "apply" ] -> Ok (Apply rest)
  | [ "stats" ] -> Ok Stats
  | [ "checkpoint" ] -> Ok Checkpoint
  | [ "shutdown" ] -> Ok Shutdown
  | [ "hello"; v; r ] -> (
      match (int_of_string_opt v, role_of_string r) with
      | Some version, Ok role -> Ok (Hello { version; role })
      | None, _ -> Error (Printf.sprintf "hello: bad version %S" v)
      | _, Error e -> Error ("hello: " ^ e))
  | [ "subscribe"; l ] -> (
      match int_of_string_opt l with
      | Some from_lsn -> Ok (Subscribe { from_lsn })
      | None -> Error (Printf.sprintf "subscribe: bad lsn %S" l))
  | _ -> Error (Printf.sprintf "unknown request %S" verb)

let decode_response payload =
  let verb, rest = cut payload in
  match verb with
  | "ok" -> Ok (Reply rest)
  | "err" -> Ok (Failed rest)
  | other -> Error (Printf.sprintf "unknown response %S" other)

let decode_stream payload =
  let verb, rest = cut payload in
  match String.split_on_char ' ' verb with
  | [ "ship" ] -> (
      match Codec.decode_txn rest with
      | Ok (lsn, ops) -> Ok (Ship { lsn; ops })
      | Error e -> Error ("ship: " ^ e))
  | [ "mark"; l ] -> (
      match int_of_string_opt l with
      | Some lsn -> Ok (Mark { lsn })
      | None -> Error (Printf.sprintf "mark: bad lsn %S" l))
  | [ "boot"; l; n ] -> (
      match (int_of_string_opt l, int_of_string_opt n) with
      | Some lsn, Some n when n >= 0 && n <= String.length rest ->
          Ok
            (Boot
               {
                 lsn;
                 schema = String.sub rest 0 n;
                 checkpoint = String.sub rest n (String.length rest - n);
               })
      | _ -> Error "boot: bad lsn or schema length")
  | _ -> Error (Printf.sprintf "unknown stream message %S" verb)

(* --- printing (logs, CLI) ------------------------------------------------ *)

let request_verb = function
  | Ping -> "ping"
  | Query _ -> "query"
  | Search _ -> "search"
  | Apply _ -> "apply"
  | Stats -> "stats"
  | Checkpoint -> "checkpoint"
  | Shutdown -> "shutdown"
  | Hello _ -> "hello"
  | Subscribe _ -> "subscribe"
