(* The network layer: wire protocol totality and round-trips, framed
   connections, group commit, the live server, and the front end both
   daemons share.

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
module Front = Bounds_net.Front
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
      | Ok _ -> Alcotest.fail "bit flip not caught");
  (* the same verdicts for a reply framed by parts, cut anywhere in its
     payload or flipped in any payload byte: [recv] reads header and
     payload into one buffer and leaves the verdict to [Frame.read] *)
  let framed =
    Frame.encode_parts (Proto.response_parts (Proto.Reply "3\nou=a\nou=b\nou=c"))
  in
  for keep = Frame.header_size to String.length framed - 1 do
    with_socketpair (fun a b ->
        let _ = Unix.write_substring a framed 0 keep in
        Unix.close a;
        match Conn.recv b with
        | Error e -> check "torn" true (contains e "mid-frame" && not (contains e "crc"))
        | Ok _ -> Alcotest.failf "%d-byte prefix read as a frame" keep)
  done;
  for i = Frame.header_size to String.length framed - 1 do
    with_socketpair (fun a b ->
        let flipped = Bytes.of_string framed in
        Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x10));
        let s = Bytes.to_string flipped in
        let _ = Unix.write_substring a s 0 (String.length s) in
        Unix.close a;
        match Conn.recv b with
        | Error e -> check "corrupt" true (contains e "crc")
        | Ok _ -> Alcotest.failf "flip at byte %d not caught" i)
  done

(* Daemons frame a response from its parts; the bytes must be those of
   framing the encoded response, and they must travel: a big reply
   takes many reads to arrive, one buffer for header and payload. *)
let test_send_by_parts () =
  let big = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  let responses =
    [
      Proto.Reply "";
      Proto.Reply "2\nuid=a,o=x\nuid=b,o=x";
      Proto.Failed "no such base";
      Proto.Reply big;
    ]
  in
  List.iter
    (fun r ->
      check_string "framed by parts"
        (Frame.encode (Proto.encode_response r))
        (Frame.encode_parts (Proto.response_parts r)))
    responses;
  List.iter
    (fun m ->
      check_string "stream framed by parts"
        (Frame.encode (Proto.encode_stream m))
        (Frame.encode_parts (Proto.stream_parts m)))
    [
      Proto.Mark { lsn = 3 };
      Proto.Boot { lsn = 9; schema = "schema\ntext"; checkpoint = big };
    ];
  with_socketpair (fun a b ->
      let sender =
        Thread.create
          (fun () ->
            List.iter (fun r -> Conn.send_parts a (Proto.response_parts r)) responses)
          ()
      in
      List.iter
        (fun r ->
          match Conn.recv b with
          | Ok (Some p) -> check "received" true (Proto.decode_response p = Ok r)
          | Ok None -> Alcotest.fail "unexpected close"
          | Error e -> Alcotest.fail e)
        responses;
      Thread.join sender)

(* The served listing is the count, then [Instance.dn] of every answer,
   byte for byte, whatever renders it. *)
let test_served_listings () =
  let inst = WP.generate ~seed:13 ~units:12 ~persons_per_unit:3 () in
  let snap = Directory.Snapshot.of_instance inst in
  let listing ids =
    String.concat "\n" (string_of_int (List.length ids) :: List.map (Instance.dn inst) ids)
  in
  let units =
    Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Entry.id e :: acc else acc)
      inst []
  in
  check "nested units" true (List.length units > 2);
  let filters = [ "(objectClass=person)"; "(objectClass=*)"; "(objectClass=orgUnit)" ] in
  List.iter
    (fun base ->
      List.iter
        (fun scope ->
          List.iter
            (fun filter ->
              let ids =
                Directory.Snapshot.search snap ~base
                  (Result.get_ok (Bounds_query.Search.scope_of_string scope))
                  (Result.get_ok (Bounds_query.Filter_parser.parse filter))
              in
              check "search reply" true
                (Server.serve_search snap
                   ~base:(Option.map (Instance.dn inst) base)
                   ~scope ~filter
                = Proto.Reply (listing ids)))
            filters)
        [ "base"; "one"; "sub" ])
    (None :: List.map Option.some units);
  List.iter
    (fun u ->
      let ou =
        let r = Entry.rdn (Instance.entry inst u) in
        String.sub r 3 (String.length r - 3) (* "ou=" *)
      in
      List.iter
        (fun text ->
          let ids =
            Directory.Snapshot.query_ids_ro snap
              (Result.get_ok (Bounds_query.Query_parser.parse text))
          in
          check "query reply" true (Server.serve_query snap text = Proto.Reply (listing ids)))
        [
          Printf.sprintf "(chi a (objectClass=person) (ou=%s))" ou;
          Printf.sprintf "(chi c (objectClass=orgUnit) (chi a (objectClass=person) (ou=%s)))" ou;
          Printf.sprintf "(chi d (objectClass=*) (ou=%s))" ou;
        ])
    units

(* --- the connection buffer ------------------------------------------------- *)

(* A forest with long DNs, so that listings reach the sizes the buffer
   must handle: [o=acme], 60 units under it, 50 persons under each, each
   person's DN about 100 bytes. *)
let long_dn_instance () =
  let cls names = Oclass.set_of_list names in
  let uid = Attr.of_string "uid" in
  let add parent e t = Result.get_ok (Instance.add ~parent e t) in
  let t = add None (Entry.make ~id:0 ~rdn:"o=acme" ~classes:(cls [ "top" ]) []) Instance.empty in
  let t = ref t in
  for u = 1 to 60 do
    let unit_id = u * 1000 in
    t :=
      add (Some 0)
        (Entry.make ~id:unit_id ~rdn:(Printf.sprintf "ou=u%d" u) ~classes:(cls [ "top" ]) [])
        !t;
    for p = 1 to 50 do
      let id = unit_id + p in
      let name = Printf.sprintf "p%d" id in
      t :=
        add (Some unit_id)
          (Entry.make ~id
             ~rdn:(Printf.sprintf "uid=%s-%s" name (String.make 80 'x'))
             ~classes:(cls [ "top"; "person" ])
             [ (uid, Value.String name) ])
          !t
    done
  done;
  !t

(* One frame off the socket, header included, as the bytes it was. *)
let read_raw_frame fd =
  let read_exactly n =
    let b = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read fd b off (n - off) with
        | 0 -> Alcotest.fail "closed mid-frame"
        | k -> go (off + k)
    in
    go 0;
    Bytes.to_string b
  in
  let header = read_exactly Frame.header_size in
  let len = Int32.to_int (String.get_int32_le header 0) in
  header ^ read_exactly len

(* One connection sends listings of 0 DNs, ~300 KB, 1 DN and ~5 KB in
   that order through its one buffer: each frame is the framing of the
   listing [serve_search] returns, byte for byte — the 300 KB one
   streamed through the 64 KiB block — so nothing of a longer earlier
   reply leaks into a shorter later one, and after every frame the
   buffer is at its initial capacity. *)
let test_buffer_stale_and_retention () =
  let inst = long_dn_instance () in
  let snap = Directory.Snapshot.of_instance inst in
  let reads =
    [
      (None, "sub", "(uid=nobody)");
      (None, "sub", "(objectClass=*)");
      (None, "sub", "(uid=p1001)");
      (Some "ou=u7,o=acme", "one", "(objectClass=person)");
    ]
  in
  let initial = Conn.capacity (Conn.buffer ()) in
  let expected =
    List.map
      (fun (base, scope, filter) ->
        Frame.encode_parts (Proto.response_parts (Server.serve_search snap ~base ~scope ~filter)))
      reads
  in
  let sizes = List.map String.length expected in
  check "a big and a small listing" true
    (List.nth sizes 1 > 300_000 && List.nth sizes 3 > 5_000 && List.nth sizes 3 < initial);
  with_socketpair (fun a b ->
      let out = Conn.buffer () in
      let capacities = ref [] in
      let sender =
        Thread.create
          (fun () ->
            List.iter
              (fun (base, scope, filter) ->
                Front.send_answer out a (Front.search_answer snap ~base ~scope ~filter);
                capacities := Conn.capacity out :: !capacities)
              reads)
          ()
      in
      List.iteri
        (fun i want -> check_string (Printf.sprintf "frame %d" i) want (read_raw_frame b))
        expected;
      Thread.join sender;
      check "back at the initial capacity after every frame" true
        (List.for_all (( = ) initial) !capacities))

(* Listings through one connection's buffer — 200 of over 2 KiB, then
   20 of about 300 KB, streamed, then 60 χ answers of 3000 entries
   each — add less than one body's worth of words to the major heap,
   where rendering each into a body and framing that ([serve_search] or
   [serve_query], then [Frame.encode_parts]) puts at least a body's
   worth of blocks there per reply.  A χ answer's id list is built
   without an intermediate array, which would be a major-heap block per
   answer of more than 256 ids.  A block too big for
   the minor heap is allocated in the major heap directly, so the direct
   major words are [major_words] less [promoted_words], read after a
   minor collection, which is when such a block is counted. *)
let test_buffer_allocation () =
  let inst = long_dn_instance () in
  let snap = Directory.Snapshot.of_instance inst in
  let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let direct_major k f =
    f ();
    (* a full major first, so no earlier test's blocks are still to be
       counted *)
    Gc.full_major ();
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    for _ = 1 to k do
      f ()
    done;
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    s1.Gc.major_words -. s1.Gc.promoted_words -. (s0.Gc.major_words -. s0.Gc.promoted_words)
  in
  let measure k read ~min_bytes =
    let answer () =
      match read with
      | `Search (base, scope, filter) -> Front.search_answer snap ~base ~scope ~filter
      | `Query q -> Front.query_answer snap q
    in
    let serve () =
      match read with
      | `Search (base, scope, filter) -> Server.serve_search snap ~base ~scope ~filter
      | `Query q -> Server.serve_query snap q
    in
    let body =
      match serve () with
      | Proto.Reply body -> body
      | Proto.Failed e -> Alcotest.fail e
    in
    check "body size" true (String.length body > min_bytes);
    let body_words = float_of_int (String.length body / (Sys.word_size / 8)) in
    let out = Conn.buffer () in
    let buffered = direct_major k (fun () -> Front.send_answer out fd (answer ())) in
    let by_body =
      direct_major k (fun () ->
          let framed = Frame.encode_parts (Proto.response_parts (serve ())) in
          ignore (Unix.write_substring fd framed 0 (String.length framed)))
    in
    if buffered >= body_words then
      Alcotest.failf "%d buffered listings: %.0f direct major words, a body is %.0f" k buffered
        body_words;
    if by_body < float_of_int k *. body_words then
      Alcotest.failf "%d listings by body: %.0f direct major words, expected at least %.0f" k
        by_body
        (float_of_int k *. body_words)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      measure 200 (`Search (Some "ou=u7,o=acme", "one", "(objectClass=person)")) ~min_bytes:2048;
      measure 20 (`Search (None, "sub", "(objectClass=*)")) ~min_bytes:300_000;
      measure 60 (`Query "(chi p (objectClass=person) (objectClass=top))") ~min_bytes:300_000;
      measure 60 (`Query "(chi a (objectClass=person) (objectClass=top))") ~min_bytes:300_000)

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

(* A port with nothing listening: bind one, read it back, close it. *)
let dead_port () =
  let f = Front.listen ~host:"127.0.0.1" ~port:0 ~max_clients:1 in
  let p = Front.port f in
  Front.wait f;
  p

(* A reconnect pause that records each delay instead of sleeping it,
   and a reader of the delays recorded so far, oldest first. *)
let recording_sleep () =
  let recorded = ref [] and m = Mutex.create () in
  let sleep d =
    Mutex.protect m (fun () -> recorded := d :: !recorded);
    Thread.delay 0.001
  in
  (sleep, fun () -> Mutex.protect m (fun () -> List.rev !recorded))

(* And the feeder follows it: against a dead primary, an injected
   fake-clock sleep records exactly the exponential schedule. *)
let test_backoff_deterministic_reconnect () =
  let sleep, recorded = recording_sleep () in
  let rep =
    Replica.start ~sleep ~primary_port:(dead_port ()) (Io.mem (Io.fresh_fs ()))
  in
  await "five recorded reconnect pauses" (fun () -> List.length (recorded ()) >= 5);
  Replica.stop rep;
  Replica.wait rep;
  let sleeps = recorded () in
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

(* --- the front end both daemons share -------------------------------------- *)

(* What the front-end cases need of a running daemon. *)
type daemon = {
  port : int;
  clients : unit -> int;
  stop : unit -> unit;
  wait : unit -> unit;
}

let server_daemon max_clients =
  let inst0 = WP.generate ~seed:5 ~units:1 ~persons_per_unit:1 () in
  let st =
    get_store "store" (Store.init (Io.mem (Io.fresh_fs ())) WP.schema inst0)
  in
  let srv = Server.start ~port:0 ?max_clients st in
  {
    port = Server.port srv;
    clients = (fun () -> (Server.stats srv).Server.clients);
    stop = (fun () -> Server.stop srv);
    wait = (fun () -> Server.wait srv);
  }

(* A replica whose primary is dead: it never synchronizes. *)
let replica_daemon ?(sleep = fst (recording_sleep ())) max_clients =
  let rep =
    Replica.start ~port:0 ?max_clients ~sleep ~primary_port:(dead_port ())
      (Io.mem (Io.fresh_fs ()))
  in
  {
    port = Replica.port rep;
    clients = (fun () -> (Replica.stats rep).Replica.clients);
    stop = (fun () -> Replica.stop rep);
    wait = (fun () -> Replica.wait rep);
  }

let stop_and_wait d =
  d.stop ();
  d.wait ()

(* A connected socket that has sent nothing yet. *)
let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let connect_ok port =
  match Client.connect ~port ~retries:40 () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

(* A future-version hello gets the named refusal, and the connection is
   closed behind it. *)
let test_front_version_gate mk () =
  let d = mk None in
  (match Client.connect ~port:d.port ~retries:40 ~hello:false () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match
         Client.request c
           (Proto.Hello { version = Proto.version + 1; role = Proto.Reader })
       with
      | Ok (Proto.Failed msg) ->
          check_string "refusal"
            (Printf.sprintf "protocol version mismatch: server %d, client %d"
               Proto.version (Proto.version + 1))
            msg
      | Ok (Proto.Reply _) -> Alcotest.fail "future version accepted"
      | Error e -> Alcotest.fail e);
      (match Client.request c Proto.Ping with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "connection survived a version mismatch");
      Client.close c);
  stop_and_wait d

(* The connection past [max_clients] is told [server full] and closed;
   once a client leaves, a new one is served.  The refusal is read
   before anything is sent: the daemon closes right after it, and a
   request already in flight could meet a reset instead. *)
let test_front_full mk () =
  let d = mk (Some 2) in
  let a = connect_ok d.port and b = connect_ok d.port in
  let fd = raw_connect d.port in
  (match Conn.recv_or_error fd with
  | Ok payload ->
      check "refused" true (Proto.decode_response payload = Ok (Proto.Failed "server full"))
  | Error e -> Alcotest.failf "no refusal: %s" e);
  check "closed after the refusal" true (Result.is_error (Conn.recv_or_error fd));
  Unix.close fd;
  check_int "two served" 2 (d.clients ());
  Client.close a;
  let served () =
    match Client.connect ~port:d.port () with
    | Error _ -> false
    | Ok c ->
        let pong = Client.request c Proto.Ping = Ok (Proto.Reply "pong") in
        Client.close c;
        pong
  in
  await "a new client served once one left" served;
  Client.close b;
  stop_and_wait d

(* [stop] with idle connections still open: [wait] returns. *)
let test_front_stop_idle mk () =
  let d = mk None in
  let idle = List.init 3 (fun _ -> connect_ok d.port) in
  await "three connections registered" (fun () -> d.clients () = 3);
  let returned = Atomic.make false in
  let waiter =
    Thread.create
      (fun () ->
        stop_and_wait d;
        Atomic.set returned true)
      ()
  in
  await "wait returns" (fun () -> Atomic.get returned);
  Thread.join waiter;
  List.iter Client.close idle

(* Connect-and-close cycles, some closing before sending anything and
   some after a refused hello: every connection leaves the registry. *)
let test_front_registry_drains mk () =
  let d = mk None in
  for i = 1 to 200 do
    let fd = raw_connect d.port in
    (* a connection past the cap is refused and closed: its send or
       receive may then meet a reset, which is fine here *)
    (try
       if i mod 2 = 0 then begin
         Conn.send fd
           (Proto.encode_request
              (Proto.Hello { version = Proto.version + 1; role = Proto.Reader }));
         if i mod 4 = 0 then ignore (Conn.recv_or_error fd)
       end
     with Unix.Unix_error _ -> ());
    Unix.close fd
  done;
  await "every connection deregistered" (fun () -> d.clients () = 0);
  stop_and_wait d

(* A replica refuses every write surface. *)
let test_replica_read_only () =
  let d = replica_daemon None in
  let c = connect_ok d.port in
  List.iter
    (fun req ->
      match Client.request c req with
      | Ok (Proto.Failed msg) ->
          check_string (Proto.request_verb req) "read-only replica" msg
      | _ -> Alcotest.failf "%s not refused" (Proto.request_verb req))
    [ Proto.Apply "dn: o=x\nchangetype: delete"; Proto.Checkpoint;
      Proto.Subscribe { from_lsn = -1 } ];
  Client.close c;
  stop_and_wait d

(* Before its first snapshot a replica answers reads with the named
   failure: its primary is dead, and it has tried to reach it. *)
let test_replica_unsynchronized () =
  let sleep, recorded = recording_sleep () in
  let d = replica_daemon ~sleep None in
  await "a recorded reconnect pause" (fun () -> recorded () <> []);
  let c = connect_ok d.port in
  List.iter
    (fun req ->
      match Client.request c req with
      | Ok (Proto.Failed msg) ->
          check_string (Proto.request_verb req) "replica not yet synchronized" msg
      | _ -> Alcotest.failf "%s answered" (Proto.request_verb req))
    [ Proto.Query "(objectClass=person)";
      Proto.Search { base = None; scope = "sub"; filter = "(objectClass=*)" } ];
  Client.close c;
  stop_and_wait d

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
          Alcotest.test_case "send by parts" `Quick test_send_by_parts;
          Alcotest.test_case "buffer: no stale bytes, retention bounded" `Quick
            test_buffer_stale_and_retention;
          Alcotest.test_case "buffer: listings stay out of the major heap" `Quick
            test_buffer_allocation;
        ] );
      ( "group-commit",
        [ qt prop_group_commit_equivalence; qt prop_crash_during_group_commit ] );
      ( "server",
        [
          Alcotest.test_case "concurrent readers see isolated snapshots" `Quick
            test_server_concurrent_isolation;
          Alcotest.test_case "concurrent writers coalesce into shared commits"
            `Quick test_server_group_commit_batches;
          Alcotest.test_case "served listings" `Quick test_served_listings;
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
      ( "front",
        List.concat_map
          (fun (name, mk) ->
            [
              Alcotest.test_case (name ^ ": future hello refused and dropped") `Quick
                (test_front_version_gate mk);
              Alcotest.test_case (name ^ ": past max_clients is server full") `Quick
                (test_front_full mk);
              Alcotest.test_case (name ^ ": stop with idle connections") `Quick
                (test_front_stop_idle mk);
              Alcotest.test_case (name ^ ": closed connections deregister") `Quick
                (test_front_registry_drains mk);
            ])
          [
            ("server", server_daemon);
            ("replica", fun max_clients -> replica_daemon max_clients);
          ]
        @ [
            Alcotest.test_case "replica: writes are read-only" `Quick
              test_replica_read_only;
            Alcotest.test_case "replica: reads before any snapshot" `Quick
              test_replica_unsynchronized;
          ] );
    ]
