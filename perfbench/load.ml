(* The load generator: one thread multiplexing every connection with
   [select], so no generator thread competes with another for a runtime
   lock and an open-loop request goes out when it is due even while a
   closed-loop one is in flight.

   A closed-loop lane sends its next request when the previous reply
   arrives and times it from the send.  An open-loop lane sends one
   request per [period] and times it from when it was due, so a stall
   is charged to every request it delays; how late the generator sent
   it is recorded too. *)

module Conn = Bounds_net.Conn
module Proto = Bounds_net.Proto

type job = {
  cls : string;
  req : Proto.request;
  on_send : float -> unit;
  check : sent:float -> recv:float -> string -> (unit, string) result;
      (** judges a [Reply] body *)
}

type lane = {
  fd : Unix.file_descr;
  next : unit -> job;
  period : float option;  (** open loop *)
  mutable left : int;  (** requests this lane may still send *)
  mutable due : float;
  mutable inflight : (job * float * float) option;  (** job, due, sent *)
}

type sample = { s_cls : string; latency : float; late : float; ok : bool }

type tally = {
  mutable samples : sample list;
  mutable wrong : string list;  (** wrong answers and failures, newest first *)
}

let tally () = { samples = []; wrong = [] }

let lane ?period ~start fd next =
  { fd; next; period; left = max_int; due = start; inflight = None }

let fd l = l.fd

exception Transport of string

(* Serve the lanes until no request is due before [until] and nothing is
   in flight.  Requests due before [until] are recorded into [into]. *)
let run ?into lanes ~until =
  let send l =
    let job = l.next () in
    l.left <- l.left - 1;
    let sent = Unix.gettimeofday () in
    job.on_send sent;
    (try Conn.send (fd l) (Proto.encode_request job.req)
     with Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e)));
    l.inflight <- Some (job, l.due, sent)
  in
  let receive l =
    match l.inflight with
    | None -> ()
    | Some (job, due, sent) ->
        let payload =
          match Conn.recv_or_error (fd l) with
          | Ok p -> p
          | Error e -> raise (Transport e)
          | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))
        in
        let recv = Unix.gettimeofday () in
        l.inflight <- None;
        let ok =
          match Proto.decode_response payload with
          | Ok (Proto.Reply body) -> (
              match job.check ~sent ~recv body with
              | Ok () -> true
              | Error e ->
                  Option.iter
                    (fun t -> t.wrong <- (job.cls ^ " " ^ Proto.request_verb job.req ^ ": " ^ e) :: t.wrong)
                    into;
                  false)
          | Ok (Proto.Failed e) | Error e ->
              Option.iter (fun t -> t.wrong <- (job.cls ^ " failed: " ^ e) :: t.wrong) into;
              false
        in
        let start = match l.period with Some _ -> due | None -> sent in
        Option.iter
          (fun t ->
            t.samples <-
              { s_cls = job.cls; latency = recv -. start; late = sent -. due; ok } :: t.samples)
          into;
        l.due <- (match l.period with Some p -> due +. p | None -> recv)
  in
  let idle l = l.inflight = None && l.left > 0 && l.due < until in
  let rec loop () =
    let now = Unix.gettimeofday () in
    List.iter (fun l -> if idle l && l.due <= now then send l) lanes;
    let busy = List.filter (fun l -> l.inflight <> None) lanes in
    let waiting = List.filter idle lanes in
    if busy <> [] || waiting <> [] then begin
      let timeout =
        match waiting with
        | [] -> -1.
        | w -> Float.max 0. (List.fold_left (fun m l -> Float.min m l.due) infinity w -. now)
      in
      (match Unix.select (List.map fd busy) [] [] timeout with
      | readable, _, _ -> List.iter (fun l -> if List.mem (fd l) readable then receive l) busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Successful-request latencies of the classes [cls] accepts, ascending,
   in ms. *)
let latencies_ms t cls =
  List.filter_map (fun s -> if s.ok && cls s.s_cls then Some (1000. *. s.latency) else None) t.samples
  |> Array.of_list
  |> fun a ->
  Array.sort compare a;
  a

let count t p = List.length (List.filter p t.samples)
