(* The network layer: wire protocol totality and round-trips, framed
   connections, epoch reclamation, group commit, and the live server.

   The group-commit property pins the equivalence the server relies on:
   transactions committed through [Store.batch] leave byte-identical
   log contents (same lsns, same frames) as the same transactions
   applied sequentially — recovery cannot tell group commits apart.
   The crash property then tears the shared batch append at every byte
   boundary and requires recovery to land on a prefix of the admitted
   batch (acknowledged ⊆ recovered: the batch never acknowledged, so
   any prefix is within contract — but it must be a {e prefix}, legal,
   and resumable).

   The server integration test runs real sockets on an ephemeral port:
   concurrent readers observe snapshot-isolated, per-connection
   monotone person counts while a writer inserts entries one
   transaction at a time. *)

open Bounds_model
open Bounds_core
module Io = Bounds_store.Io
module Store = Bounds_store.Store
module Frame = Bounds_store.Frame
module Proto = Bounds_net.Proto
module Conn = Bounds_net.Conn
module Epoch = Bounds_net.Epoch
module Server = Bounds_net.Server
module Client = Bounds_net.Client
module Replica = Bounds_net.Replica
module Gen = Bounds_workload.Gen
module WP = Bounds_workload.White_pages

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let get_store what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Store.error_to_string e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- protocol ------------------------------------------------------------ *)

let test_proto_roundtrip () =
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok r' -> check (Proto.request_verb r) true (r = r')
      | Error e -> Alcotest.failf "%s: %s" (Proto.request_verb r) e)
    [
      Proto.Ping;
      Proto.Query "(objectClass=person)";
      Proto.Query "";
      Proto.Query "(minus (a=b)\n (c=d))";
      Proto.Search { base = None; scope = "sub"; filter = "(uid=*)" };
      Proto.Search
        { base = Some "ou=x, o=y"; scope = "one"; filter = "(a=b)\n(c=d)" };
      Proto.Apply "dn: uid=z, o=y\nchangetype: add\nobjectClass: top";
      Proto.Stats;
      Proto.Checkpoint;
      Proto.Shutdown;
      Proto.Hello { version = Proto.version; role = Proto.Reader };
      Proto.Hello { version = 3; role = Proto.Replica };
      Proto.Subscribe { from_lsn = -1 };
      Proto.Subscribe { from_lsn = 123 };
    ];
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Ok r' -> check "response" true (r = r')
      | Error e -> Alcotest.failf "response: %s" e)
    [ Proto.Reply ""; Proto.Reply "15\na\nb"; Proto.Failed "no such dn" ]

let test_proto_errors () =
  List.iter
    (fun payload -> check payload true (Result.is_error (Proto.decode_request payload)))
    [ "teleport"; "search\nsub"; "search\n\nx\n(f)"; "search\nsub\nbase"; "" ];
  check "bad response" true (Result.is_error (Proto.decode_response "maybe\nx"))

let line_gen =
  (* newline-free, sometimes empty-ish operand lines *)
  QCheck.Gen.(
    map
      (fun s ->
        String.concat "" (List.filter (fun c -> c <> "\n") [ s ]) |> fun s ->
        if s = "" then "x" else String.map (fun c -> if c = '\n' then '_' else c) s)
      (string_size (int_range 1 12)))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        return Proto.Ping;
        return Proto.Stats;
        return Proto.Checkpoint;
        return Proto.Shutdown;
        map (fun s -> Proto.Query s) (string_size (int_bound 40));
        map (fun s -> Proto.Apply s) (string_size (int_bound 40));
        map3
          (fun base scope filter -> Proto.Search { base; scope; filter })
          (opt line_gen)
          (oneofl [ "base"; "one"; "sub" ])
          (map2 (fun a b -> a ^ b) line_gen (string_size (int_bound 20)));
        map2
          (fun version replica ->
            Proto.Hello
              { version; role = (if replica then Proto.Replica else Proto.Reader) })
          (int_bound 100) bool;
        map (fun l -> Proto.Subscribe { from_lsn = l - 1 }) (int_bound 1000);
      ])

let prop_proto_roundtrip =
  QCheck.Test.make ~name:"request decode . encode = id" ~count:500
    (QCheck.make request_gen) (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok r' -> r = r'
      | Error _ -> false)

let prop_proto_total =
  QCheck.Test.make ~name:"request decoding is total" ~count:500
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun junk ->
      (match Proto.decode_request junk with Ok _ | Error _ -> true)
      && match Proto.decode_response junk with Ok _ | Error _ -> true)

let test_stream_roundtrip () =
  let inst0 = WP.generate ~seed:3 ~units:1 ~persons_per_unit:2 () in
  let counter = ref 90_000 in
  let ops = Gen.random_ops ~counter ~seed:5 ~n:3 WP.schema inst0 in
  List.iter
    (fun msg ->
      match Proto.decode_stream (Proto.encode_stream msg) with
      | Error e -> Alcotest.fail e
      | Ok msg' ->
          (* the codec may rebuild ops structurally; byte equality of the
             re-encoding is the round-trip law that matters on a wire *)
          check_string "stream round-trip" (Proto.encode_stream msg)
            (Proto.encode_stream msg'))
    [
      Proto.Ship { lsn = 1; ops };
      Proto.Ship { lsn = 42; ops = [] };
      Proto.Mark { lsn = 7 };
      Proto.Boot
        {
          lsn = 9;
          schema = "schema text\nwith lines";
          checkpoint = "\x00\x01binary\nblob \xff";
        };
      Proto.Boot { lsn = 0; schema = ""; checkpoint = "" };
    ]

let prop_stream_total =
  QCheck.Test.make ~name:"stream decoding is total" ~count:500
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun junk -> match Proto.decode_stream junk with Ok _ | Error _ -> true)

(* --- framed connections -------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_conn_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          Conn.send a payload;
          match Conn.recv b with
          | Ok (Some p) -> check_string "payload" payload p
          | Ok None -> Alcotest.fail "unexpected close"
          | Error e -> Alcotest.fail e)
        [ ""; "x"; String.init 300 (fun i -> Char.chr (i mod 256)) ])

let test_conn_close_and_torn () =
  (* clean close before any byte: Ok None *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Conn.recv b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "read from closed peer"
      | Error e -> Alcotest.failf "clean close reported as %s" e);
  (* close mid-frame: Error, not a truncated payload *)
  let framed = Bounds_store.Frame.encode "torn in transit" in
  for keep = 1 to String.length framed - 1 do
    with_socketpair (fun a b ->
        let n = Unix.write_substring a framed 0 keep in
        check_int "short write" keep n;
        Unix.close a;
        match Conn.recv b with
        | Error _ -> ()
        | Ok None -> Alcotest.failf "%d-byte prefix read as clean close" keep
        | Ok (Some _) -> Alcotest.failf "%d-byte prefix read as a frame" keep)
  done

let test_conn_corrupt () =
  let framed = Bytes.of_string (Bounds_store.Frame.encode "checksummed") in
  let last = Bytes.length framed - 1 in
  Bytes.set framed last (Char.chr (Char.code (Bytes.get framed last) lxor 1));
  with_socketpair (fun a b ->
      let s = Bytes.to_string framed in
      let _ = Unix.write_substring a s 0 (String.length s) in
      Unix.close a;
      match Conn.recv b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bit flip not caught")

(* A replica classifies feed failures by the error text: a mid-frame
   disconnect is torn transport (reconnect and resume), a checksum
   failure is corruption.  Pin the two classes apart. *)
let test_torn_vs_corrupt_classification () =
  let framed = Frame.encode "classification probe" in
  with_socketpair (fun a b ->
      let _ = Unix.write_substring a framed 0 (String.length framed - 3) in
      Unix.close a;
      match Conn.recv b with
      | Error e ->
          check "cut is classified torn" true (contains e "mid-frame");
          check "cut is not classified corrupt" false (contains e "crc")
      | Ok _ -> Alcotest.fail "mid-frame cut read as a frame");
  with_socketpair (fun a b ->
      let flipped = Bytes.of_string framed in
      let mid = Bytes.length flipped - 2 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
      let s = Bytes.to_string flipped in
      let _ = Unix.write_substring a s 0 (String.length s) in
      Unix.close a;
      match Conn.recv b with
      | Error e -> check "flip is classified corrupt" true (contains e "crc")
      | Ok _ -> Alcotest.fail "bit flip not caught")

(* --- epoch reclamation --------------------------------------------------- *)

let test_epoch_unpinned () =
  let e = Epoch.create ~slots:4 in
  Epoch.retire e "v0";
  Epoch.retire e "v1";
  check_int "nothing pinned: all reclaimed" 0 (Epoch.pending e);
  check_int "reclaimed total" 2 (Epoch.reclaimed e)

let test_epoch_pinned_reader_holds () =
  let e = Epoch.create ~slots:2 in
  let _ = Epoch.pin e ~slot:0 in
  Epoch.retire e "v0";
  Epoch.retire e "v1";
  check_int "pinned reader holds both" 2 (Epoch.pending e);
  Epoch.unpin e ~slot:0;
  Epoch.retire e "v2";
  check_int "unpinned: swept at next retire" 0 (Epoch.pending e);
  check_int "all reclaimed" 3 (Epoch.reclaimed e)

let test_epoch_late_pin_does_not_hold_past () =
  let e = Epoch.create ~slots:2 in
  Epoch.retire e "v0";
  (* a reader pinning now is at epoch 1: it can only hold v1+ *)
  let ep = Epoch.pin e ~slot:1 in
  check_int "pinned at advanced epoch" 1 ep;
  Epoch.retire e "v1";
  check_int "only v1 held" 1 (Epoch.pending e)

(* --- group commit: equivalence and crash --------------------------------- *)

(* A deterministic script of legal transactions over a small
   white-pages instance, with the expected state after each prefix. *)
let make_script seed =
  let inst0 = WP.generate ~seed:(seed + 1) ~units:2 ~persons_per_unit:2 () in
  let fs = Io.fresh_fs () in
  let st = get_store "script init" (Store.init (Io.mem fs) WP.schema inst0) in
  let counter = ref 50_000 in
  let txns = ref [] and states = ref [ inst0 ] in
  for i = 0 to 5 do
    let cur = Directory.instance (Store.directory st) in
    let txn =
      Gen.random_ops ~counter ~seed:(seed + (17 * i)) ~n:(1 + (i mod 2))
        WP.schema cur
    in
    match Store.apply st txn with
    | Admission.Accepted _ ->
        txns := txn :: !txns;
        states := Directory.instance (Store.directory st) :: !states
    | Admission.Rejected _ -> ()
  done;
  (inst0, List.rev !txns, Array.of_list (List.rev !states))

let chunk sizes_rng txns =
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
        let k = min (List.length l) (1 + Random.State.int sizes_rng 4) in
        let rec split a n = function
          | tl when n = 0 -> (List.rev a, tl)
          | x :: tl -> split (x :: a) (n - 1) tl
          | [] -> (List.rev a, [])
        in
        let c, rest = split [] k l in
        go (c :: acc) rest
  in
  go [] txns

let prop_group_commit_equivalence =
  QCheck.Test.make
    ~name:"batched commits leave byte-identical logs (lsn, frames, state)"
    ~count:8
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let inst0, txns, states = make_script seed in
      QCheck.assume (txns <> []);
      let fs_seq = Io.fresh_fs () and fs_bat = Io.fresh_fs () in
      let st_seq =
        get_store "seq init" (Store.init (Io.mem fs_seq) WP.schema inst0)
      in
      let st_bat =
        get_store "bat init" (Store.init (Io.mem fs_bat) WP.schema inst0)
      in
      List.iter
        (fun txn ->
          match Store.apply st_seq txn with
          | Admission.Accepted _ -> ()
          | Admission.Rejected _ ->
              Alcotest.fail "sequential apply rejected a scripted txn")
        txns;
      let rng = Random.State.make [| seed; 99 |] in
      List.iter
        (fun group ->
          ignore
            (Store.batch st_bat (fun () ->
                 List.iter
                   (fun txn ->
                     match Store.apply st_bat txn with
                     | Admission.Accepted _ -> ()
                     | Admission.Rejected _ ->
                         Alcotest.fail "batched apply rejected a scripted txn")
                   group)))
        (chunk rng txns);
      let final = states.(Array.length states - 1) in
      let wal fs =
        match Io.read_fs fs Store.wal_file with Some s -> s | None -> ""
      in
      let counts st =
        let m = Store.stats st in
        Bounds_store.Checkpoint.(m.applied, m.rejected)
      in
      Store.lsn st_bat = Store.lsn st_seq
      && wal fs_bat = wal fs_seq
      && counts st_bat = counts st_seq
      && Instance.equal (Directory.instance (Store.directory st_bat)) final
      && Directory.validate (Store.directory st_bat) = []
      &&
      (* and recovery agrees *)
      let st_r, _ = get_store "recover" (Store.open_ (Io.mem (Io.copy_fs fs_bat))) in
      Instance.equal (Directory.instance (Store.directory st_r)) final)

let prop_crash_during_group_commit =
  QCheck.Test.make
    ~name:"torn batch append recovers a legal prefix of the batch" ~count:6
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let inst0, txns, states = make_script seed in
      QCheck.assume (List.length txns >= 2);
      (* base: an initialized store; the batched run then performs
         exactly one mutating I/O operation — the shared append *)
      let base = Io.fresh_fs () in
      let _ = get_store "base init" (Store.init (Io.mem base) WP.schema inst0) in
      let append_size =
        let fs = Io.copy_fs base in
        let io, trace = Io.counting (Io.mem fs) in
        let st, _ = get_store "clean open" (Store.open_ io) in
        ignore
          (Store.batch st (fun () ->
               List.iter (fun txn -> ignore (Store.apply st txn)) txns));
        match trace () with
        | [ (0, size) ] -> size
        | ops -> Alcotest.failf "batch performed %d I/O ops, wanted 1" (List.length ops)
      in
      let faults =
        Io.Crash_at 0
        :: List.init (append_size - 1) (fun i -> Io.Tear { op = 0; keep = i + 1 })
      in
      List.for_all
        (fun fault ->
          let fs = Io.copy_fs base in
          let io = Io.faulty ~faults:[ fault ] (Io.mem fs) in
          let st, _ = get_store "faulty open" (Store.open_ io) in
          let crashed =
            match
              Store.batch st (fun () ->
                  List.iter (fun txn -> ignore (Store.apply st txn)) txns)
            with
            | (), _ -> false
            | exception Io.Crash -> true
          in
          (* nothing was acknowledged; recovery must land on a prefix *)
          crashed
          &&
          let st_r, _ =
            get_store "crash recover" (Store.open_ (Io.mem fs))
          in
          let lsn = Store.lsn st_r in
          lsn <= List.length txns
          && Instance.equal
               (Directory.instance (Store.directory st_r))
               states.(lsn)
          && Directory.validate (Store.directory st_r) = [])
        faults)

(* --- the live server ----------------------------------------------------- *)

let person_count client =
  match
    Client.request client (Proto.Query "(objectClass=person)")
  with
  | Ok (Proto.Reply body) -> (
      match String.split_on_char '\n' body with
      | count :: _ -> int_of_string count
      | [] -> Alcotest.fail "empty query reply")
  | Ok (Proto.Failed e) -> Alcotest.failf "query failed: %s" e
  | Error e -> Alcotest.failf "query transport: %s" e

let test_server_concurrent_isolation () =
  let inst0 = WP.generate ~seed:7 ~units:3 ~persons_per_unit:2 () in
  let n0 = 6 (* 3 units * 2 persons *) in
  let writes = 24 and readers = 4 and reads_each = 40 in
  let st =
    get_store "server store" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
  in
  let srv = Server.start ~port:0 ~batch_max:8 st in
  let port = Server.port srv in
  let failures = Atomic.make 0 in
  let fail () = Atomic.incr failures in
  let writer =
    Thread.create
      (fun () ->
        match Client.connect ~port ~retries:40 () with
        | Error _ -> fail ()
        | Ok c ->
            for n = 0 to writes - 1 do
              let record =
                String.concat "\n"
                  [
                    Printf.sprintf "dn: uid=iso%d, ou=unit1, o=acme" n;
                    "changetype: add";
                    "objectClass: person";
                    "objectClass: staffmember";
                    "objectClass: top";
                    Printf.sprintf "uid: iso%d" n;
                    Printf.sprintf "name: iso person %d" n;
                  ]
              in
              match Client.request c (Proto.Apply record) with
              | Ok (Proto.Reply _) -> ()
              | Ok (Proto.Failed _) | Error _ -> fail ()
            done;
            Client.close c)
      ()
  in
  let reader_threads =
    List.init readers (fun _ ->
        Thread.create
          (fun () ->
            match Client.connect ~port ~retries:40 () with
            | Error _ -> fail ()
            | Ok c ->
                let last = ref n0 in
                (try
                   for _ = 1 to reads_each do
                     let n = person_count c in
                     (* a snapshot the server once published: within the
                        write window, and (per connection) monotone —
                        snapshots only move forward *)
                     if n < !last || n > n0 + writes then fail ();
                     last := n
                   done
                 with _ -> fail ());
                Client.close c)
          ())
  in
  Thread.join writer;
  List.iter Thread.join reader_threads;
  (* all writes landed: the final count is exact *)
  (match Client.connect ~port ~retries:10 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      check_int "final person count" (n0 + writes) (person_count c);
      (match Client.request c Proto.Shutdown with
      | Ok (Proto.Reply _) -> ()
      | _ -> Alcotest.fail "shutdown refused");
      Client.close c);
  Server.wait srv;
  check_int "no reader or writer anomalies" 0 (Atomic.get failures);
  let s = Server.stats srv in
  check_int "every write acknowledged" writes s.Server.writes_ok;
  check "reads were served" true (s.Server.reads > 0);
  check "snapshots were retired" true (s.Server.snapshots_retired > 0)

let test_server_group_commit_batches () =
  (* many concurrent writers, writer thread slower than arrivals: the
     server must coalesce transactions into shared commits *)
  let inst0 = WP.generate ~seed:11 ~units:2 ~persons_per_unit:1 () in
  let st =
    get_store "server store" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
  in
  let srv = Server.start ~port:0 ~batch_max:16 st in
  let port = Server.port srv in
  let clients = 8 and per_client = 10 in
  let failures = Atomic.make 0 in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            match Client.connect ~port ~retries:40 () with
            | Error _ -> Atomic.incr failures
            | Ok c ->
                for n = 0 to per_client - 1 do
                  let record =
                    String.concat "\n"
                      [
                        Printf.sprintf "dn: uid=gc%dx%d, ou=unit1, o=acme" ci n;
                        "changetype: add";
                        "objectClass: person";
                        "objectClass: top";
                        Printf.sprintf "uid: gc%dx%d" ci n;
                        "name: group commit probe";
                      ]
                  in
                  match Client.request c (Proto.Apply record) with
                  | Ok (Proto.Reply _) -> ()
                  | Ok (Proto.Failed _) | Error _ -> Atomic.incr failures
                done;
                Client.close c)
          ())
  in
  List.iter Thread.join threads;
  (match Client.connect ~port ~retries:10 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match Client.request c Proto.Shutdown with
      | Ok (Proto.Reply _) -> ()
      | _ -> Alcotest.fail "shutdown refused");
      Client.close c);
  Server.wait srv;
  check_int "no failures" 0 (Atomic.get failures);
  let s = Server.stats srv in
  let total = clients * per_client in
  check_int "all transactions committed" total s.Server.writes_ok;
  check_int "all carried by group commits" total s.Server.batched;
  (* not every commit can have been solo: with 8 concurrent writers at
     least one shared fsync carried more than one transaction *)
  check "commits were coalesced" true (s.Server.batches < total);
  (* and the durable state is exact: recovery would see every txn — the
     store is in memory, but the directory must hold all inserts *)
  check_int "final size" (Instance.size inst0 + total)
    (Directory.size (Store.directory st))

(* --- replication --------------------------------------------------------- *)

let await ?(tries = 500) what pred =
  let rec go tries =
    if pred () then ()
    else if tries = 0 then Alcotest.failf "timeout waiting for %s" what
    else begin
      Thread.delay 0.02;
      go (tries - 1)
    end
  in
  go tries

(* The reconnect schedule is pure: check it without a clock. *)
let test_backoff_schedule () =
  List.iteri
    (fun i expect ->
      check
        (Printf.sprintf "backoff attempt %d" i)
        true
        (Float.abs (Replica.backoff ~attempt:i -. expect) < 1e-9))
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.6; 2.0; 2.0; 2.0 ]

(* And the feeder follows it: against a dead primary, an injected
   fake-clock sleep records exactly the exponential schedule. *)
let test_backoff_deterministic_reconnect () =
  (* a port with nothing listening: bind, read it back, close *)
  let dead_port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    in
    Unix.close fd;
    p
  in
  let recorded = ref [] in
  let m = Mutex.create () in
  let sleep d =
    Mutex.lock m;
    recorded := d :: !recorded;
    Mutex.unlock m;
    Thread.yield ()
  in
  let rep =
    Replica.start ~sleep ~primary_port:dead_port (Io.mem (Io.fresh_fs ()))
  in
  await "five recorded reconnect pauses" (fun () ->
      Mutex.lock m;
      let n = List.length !recorded in
      Mutex.unlock m;
      n >= 5);
  Replica.stop rep;
  Replica.wait rep;
  let sleeps = List.rev !recorded in
  List.iteri
    (fun i expect ->
      check
        (Printf.sprintf "recorded pause %d" i)
        true
        (Float.abs (List.nth sleeps i -. expect) < 1e-9))
    [ 0.05; 0.1; 0.2; 0.4; 0.8 ];
  let s = Replica.stats rep in
  check "reconnects counted" true (s.Replica.reconnects >= 5);
  check "never connected" false s.Replica.connected

(* Resume-from-lsn never re-applies: shipping the whole history again
   over an up-to-date replica yields [`Duplicate] for every record and
   changes nothing; a gap is refused outright. *)
let prop_lsn_discipline =
  QCheck.Test.make
    ~name:"resume overlap is skipped, never re-applied (lsn discipline)"
    ~count:6
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let inst0, txns, _states = make_script seed in
      QCheck.assume (txns <> []);
      let primary =
        get_store "primary" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
      in
      List.iter (fun t -> ignore (Store.apply primary t)) txns;
      let records =
        match Store.records_from primary ~lsn:0 with
        | `Records rs -> rs
        | `Too_old -> Alcotest.fail "fresh primary claims too-old"
      in
      let rep =
        get_store "replica" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
      in
      let applied =
        List.for_all
          (fun (lsn, ops) -> Store.replica_apply rep ~lsn ops = Ok `Applied)
          records
      in
      let before = Directory.instance (Store.directory rep) in
      let lsn_before = Store.lsn rep in
      let all_dup =
        List.for_all
          (fun (lsn, ops) -> Store.replica_apply rep ~lsn ops = Ok `Duplicate)
          records
      in
      let unchanged =
        Store.lsn rep = lsn_before
        && Instance.equal before (Directory.instance (Store.directory rep))
      in
      let gap_refused =
        match records with
        | (_, ops) :: _ -> (
            match Store.replica_apply rep ~lsn:(Store.lsn rep + 2) ops with
            | Error _ -> true
            | Ok _ -> false)
        | [] -> true
      in
      applied && all_dup && unchanged && gap_refused
      && Instance.equal
           (Directory.instance (Store.directory rep))
           (Directory.instance (Store.directory primary)))

(* The headline fault property: materialize the exact byte stream a
   subscriber receives (one CRC frame per shipped record, a compaction
   mark mid-stream), crash the replica at {e every} byte boundary —
   whole frames applied, the torn tail discarded, the handle dropped —
   recover it from its own files, reconnect (catch up from the durable
   lsn), and require convergence with the primary at every single cut. *)
let prop_crash_at_every_shipped_byte =
  QCheck.Test.make
    ~name:"replica crashed at every shipped byte converges after reconnect"
    ~count:2
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let inst0, txns, states = make_script seed in
      QCheck.assume (txns <> []);
      let primary =
        get_store "primary" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
      in
      List.iter
        (fun txn ->
          match Store.apply primary txn with
          | Admission.Accepted _ -> ()
          | Admission.Rejected _ -> Alcotest.fail "scripted txn rejected")
        txns;
      let final_lsn = Store.lsn primary in
      let final = states.(Array.length states - 1) in
      (* bootstrap package at lsn 0, installed once as the base image
         every cut starts from *)
      let base = Io.fresh_fs () in
      (let b0 =
         get_store "boot source"
           (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
       in
       let schema_text, ckpt, _ = Store.boot_blob b0 in
       Store.close b0;
       match
         Store.install_snapshot (Io.mem base) ~schema:schema_text
           ~checkpoint:ckpt
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      (* the byte stream a subscriber from lsn 0 receives *)
      let stream =
        let buf = Buffer.create 1024 in
        let mark_at = (List.length txns + 1) / 2 in
        List.iteri
          (fun i txn ->
            Buffer.add_string buf
              (Frame.encode
                 (Proto.encode_stream (Proto.Ship { lsn = i + 1; ops = txn })));
            if i + 1 = mark_at then
              Buffer.add_string buf
                (Frame.encode (Proto.encode_stream (Proto.Mark { lsn = i + 1 }))))
          txns;
        Buffer.contents buf
      in
      for cut = 0 to String.length stream do
        let fs = Io.copy_fs base in
        let st, _ = get_store "replica open" (Store.open_ (Io.mem fs)) in
        let prefix = String.sub stream 0 cut in
        let rec feed off =
          match Frame.read prefix off with
          | Frame.End | Frame.Torn _ -> ()  (* the cut: stop receiving *)
          | Frame.Record { payload; next } ->
              (match Proto.decode_stream payload with
              | Ok (Proto.Ship { lsn; ops }) -> (
                  match Store.replica_apply st ~lsn ops with
                  | Ok (`Applied | `Duplicate) -> ()
                  | Error e -> Alcotest.failf "apply at cut %d: %s" cut e)
              | Ok (Proto.Mark _) -> Store.checkpoint st
              | Ok (Proto.Boot _) -> Alcotest.fail "unexpected boot mid-stream"
              | Error e -> Alcotest.failf "decode at cut %d: %s" cut e);
              feed next
        in
        feed 0;
        (* crash: drop the handle, recover from the replica's own files *)
        Store.close st;
        let st_r, _ = get_store "replica recover" (Store.open_ (Io.mem fs)) in
        (* reconnect: resume from the durable lsn *)
        (match Store.records_from primary ~lsn:(Store.lsn st_r) with
        | `Too_old -> Alcotest.failf "catch-up too old at cut %d" cut
        | `Records rs ->
            List.iter
              (fun (lsn, ops) ->
                match Store.replica_apply st_r ~lsn ops with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "catch-up at cut %d: %s" cut e)
              rs);
        if Store.lsn st_r <> final_lsn then
          Alcotest.failf "cut %d: lsn %d, primary %d" cut (Store.lsn st_r)
            final_lsn;
        if not (Instance.equal (Directory.instance (Store.directory st_r)) final)
        then Alcotest.failf "cut %d: replica instance diverged" cut;
        if Directory.validate (Store.directory st_r) <> [] then
          Alcotest.failf "cut %d: replica fails validate" cut;
        Store.close st_r
      done;
      Store.close primary;
      true)

(* Version gate: a future protocol hello is refused and the connection
   dropped; the current version handshakes; a reader cannot subscribe
   on a primary without replication enabled. *)
let test_hello_version_gate () =
  let inst0 = WP.generate ~seed:5 ~units:1 ~persons_per_unit:1 () in
  let st =
    get_store "store" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
  in
  let srv = Server.start ~port:0 st in
  let port = Server.port srv in
  (match Client.connect ~port ~retries:40 ~hello:false () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match
         Client.request c
           (Proto.Hello { version = Proto.version + 1; role = Proto.Reader })
       with
      | Ok (Proto.Failed msg) ->
          check "mismatch named" true (contains msg "version mismatch")
      | Ok (Proto.Reply _) -> Alcotest.fail "future version accepted"
      | Error e -> Alcotest.fail e);
      (match Client.request c Proto.Ping with
      | Error _ -> ()  (* the server hung up after the refusal *)
      | Ok _ -> Alcotest.fail "connection survived a version mismatch");
      Client.close c);
  (match Client.connect ~port ~retries:10 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match Client.request c Proto.Ping with
      | Ok (Proto.Reply "pong") -> ()
      | _ -> Alcotest.fail "ping after handshake");
      (match Client.request c (Proto.Subscribe { from_lsn = -1 }) with
      | Ok (Proto.Failed msg) ->
          check "subscribe refused" true (contains msg "replication")
      | _ -> Alcotest.fail "subscribe was not refused");
      (match Client.request c Proto.Shutdown with
      | Ok (Proto.Reply _) -> ()
      | _ -> Alcotest.fail "shutdown refused");
      Client.close c);
  Server.wait srv

(* End to end over real sockets: primary serves with replication, the
   replica bootstraps, follows live traffic, is killed, restarted on
   its own files, and converges again — resuming by lsn, not by a
   second bootstrap. *)
let test_replication_live () =
  let inst0 = WP.generate ~seed:21 ~units:2 ~persons_per_unit:2 () in
  let n0 = 4 in
  let st =
    get_store "primary store"
      (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
  in
  let srv = Server.start ~port:0 ~replicate:true st in
  let port = Server.port srv in
  let rfs = Io.fresh_fs () in
  let rep = Replica.start ~primary_port:port (Io.mem rfs) in
  let write c n name =
    for i = 0 to n - 1 do
      let record =
        String.concat "\n"
          [
            Printf.sprintf "dn: uid=%s%d, ou=unit1, o=acme" name i;
            "changetype: add";
            "objectClass: person";
            "objectClass: top";
            Printf.sprintf "uid: %s%d" name i;
            "name: replicated person";
          ]
      in
      match Client.request c (Proto.Apply record) with
      | Ok (Proto.Reply _) -> ()
      | Ok (Proto.Failed e) -> Alcotest.failf "apply: %s" e
      | Error e -> Alcotest.failf "apply transport: %s" e
    done
  in
  (match Client.connect ~port ~retries:40 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      write c 10 "rep";
      Client.close c);
  await "replica caught up to lsn 10" (fun () ->
      (Replica.stats rep).Replica.applied_lsn >= 10);
  (* the replica answers the same query the primary would *)
  (match Client.connect ~port:(Replica.port rep) ~retries:40 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      check_int "replicated person count" (n0 + 10) (person_count c);
      Client.close c);
  let boots_before = (Replica.stats rep).Replica.boots in
  check "first sync bootstrapped" true (boots_before >= 1);
  (* kill the replica, write more, restart it on the same files *)
  Replica.stop rep;
  Replica.wait rep;
  (match Client.connect ~port ~retries:10 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      write c 5 "late";
      Client.close c);
  let rep2 = Replica.start ~primary_port:port (Io.mem rfs) in
  await "restarted replica caught up to lsn 15" (fun () ->
      (Replica.stats rep2).Replica.applied_lsn >= 15);
  let s2 = Replica.stats rep2 in
  check_int "restart resumed by lsn, no second bootstrap" 0 s2.Replica.boots;
  (match Client.connect ~port:(Replica.port rep2) ~retries:40 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      check_int "post-restart person count" (n0 + 15) (person_count c);
      Client.close c);
  (* primary-side stats see the subscriber *)
  let ps = Server.stats srv in
  check_int "one live subscriber" 1 ps.Server.replicas;
  check_int "no shipping backlog" 0 ps.Server.replica_lag;
  Replica.stop rep2;
  Replica.wait rep2;
  (match Client.connect ~port ~retries:10 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match Client.request c Proto.Shutdown with
      | Ok (Proto.Reply _) -> ()
      | _ -> Alcotest.fail "shutdown refused");
      Client.close c);
  Server.wait srv

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "proto",
        [
          Alcotest.test_case "constructor round-trips" `Quick test_proto_roundtrip;
          Alcotest.test_case "malformed payloads reject" `Quick test_proto_errors;
          Alcotest.test_case "stream round-trips" `Quick test_stream_roundtrip;
          qt prop_proto_roundtrip;
          qt prop_proto_total;
          qt prop_stream_total;
        ] );
      ( "conn",
        [
          Alcotest.test_case "frame round-trip" `Quick test_conn_roundtrip;
          Alcotest.test_case "close and torn frames" `Quick test_conn_close_and_torn;
          Alcotest.test_case "corrupt frame" `Quick test_conn_corrupt;
          Alcotest.test_case "torn vs corrupt classification" `Quick
            test_torn_vs_corrupt_classification;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "unpinned reclaims immediately" `Quick test_epoch_unpinned;
          Alcotest.test_case "pinned reader holds" `Quick test_epoch_pinned_reader_holds;
          Alcotest.test_case "late pin holds only the present" `Quick
            test_epoch_late_pin_does_not_hold_past;
        ] );
      ( "group-commit",
        [ qt prop_group_commit_equivalence; qt prop_crash_during_group_commit ] );
      ( "server",
        [
          Alcotest.test_case "concurrent readers see isolated snapshots" `Quick
            test_server_concurrent_isolation;
          Alcotest.test_case "concurrent writers coalesce into shared commits"
            `Quick test_server_group_commit_batches;
        ] );
      ( "replication",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "deterministic reconnect pacing" `Quick
            test_backoff_deterministic_reconnect;
          Alcotest.test_case "hello version gate" `Quick test_hello_version_gate;
          qt prop_lsn_discipline;
          qt prop_crash_at_every_shipped_byte;
          Alcotest.test_case "live kill and reconnect converges" `Quick
            test_replication_live;
        ] );
    ]
