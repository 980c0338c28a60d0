(* Durable directory sessions: CRC-framed write-ahead log, checkpoint
   compaction, and crash recovery.

   The deterministic matrix drives every documented damage shape
   (truncated tail, torn header/payload, CRC bit flip, duplicate tail
   records, lsn gap, empty log, missing log) through [Store.open_] and
   checks the positioned [Recovered_at] report.  The QCheck property
   then crashes a scripted run at {e every} mutating operation and every
   intra-record byte boundary, and requires recovery to reproduce
   exactly the acknowledged prefix — through the trusted replay path
   (the default) {e and} through the checked path
   ([Store.Private.open_checked]), which must agree on every crash
   point. *)

open Bounds_model
open Bounds_core
module Io = Bounds_store.Io
module Frame = Bounds_store.Frame
module Codec = Bounds_store.Codec
module Wal = Bounds_store.Wal
module Checkpoint = Bounds_store.Checkpoint
module Store = Bounds_store.Store
module Gen = Bounds_workload.Gen
module WP = Bounds_workload.White_pages

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let a = Attr.of_string

let get_store what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Store.error_to_string e)

let get_apply what = function
  | Admission.Accepted _ as r -> r
  | Admission.Rejected { reason; _ } ->
      Alcotest.failf "%s: %s" what
        (Format.asprintf "%a" Monitor.pp_rejection reason)

(* --- Frame ---------------------------------------------------------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let s = Frame.encode payload in
      match Frame.read s 0 with
      | Frame.Record { payload = p; next } ->
          check_string "payload" payload p;
          check_int "next" (String.length s) next;
          check "end" true (Frame.read s next = Frame.End)
      | _ -> Alcotest.fail "frame did not read back")
    [ ""; "a"; String.init 256 Char.chr |> fun s -> s ^ s ]

let test_frame_torn () =
  let s = Frame.encode "hello, log" in
  for keep = 1 to String.length s - 1 do
    match Frame.read (String.sub s 0 keep) 0 with
    | Frame.Torn { offset; _ } -> check_int "torn offset" 0 offset
    | Frame.End -> Alcotest.failf "prefix of %d bytes read as End" keep
    | Frame.Record _ -> Alcotest.failf "prefix of %d bytes read as a record" keep
  done;
  (* a flip of any single payload bit is caught by the CRC *)
  let flip i bit s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  in
  for i = Frame.header_size to String.length s - 1 do
    for bit = 0 to 7 do
      match Frame.read (flip i bit s) 0 with
      | Frame.Torn { reason; _ } -> check_string "flip reason" "crc mismatch" reason
      | _ -> Alcotest.failf "flipped bit %d of byte %d went unnoticed" bit i
    done
  done;
  (* header damage is caught too, whatever the reason *)
  for i = 0 to Frame.header_size - 1 do
    match Frame.read (flip i 0 s) 0 with
    | Frame.Torn _ -> ()
    | Frame.End -> Alcotest.failf "header flip at byte %d read as End" i
    | Frame.Record _ -> Alcotest.failf "header flip at byte %d went unnoticed" i
  done

(* The CRC must stay IEEE 802.3 bit for bit: a wrong table would still
   round-trip (both ends share the mistake) yet orphan every store and
   log written before.  Known answers, a table-free bitwise reference,
   and a frame written by the byte-at-a-time implementation pin it. *)
let test_crc_known_answers () =
  check "empty" true (Frame.crc32 "" = 0l);
  check "check value" true (Frame.crc32 "123456789" = 0xCBF43926l);
  check "one byte" true (Frame.crc32 "a" = 0xE8B7BE43l);
  check "pangram" true
    (Frame.crc32 "The quick brown fox jumps over the lazy dog" = 0x414FA339l)

(* bit at a time, no table: the definition *)
let reference_crc s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* 600 lengths drawn from 0..300: every tail length mod 8 comes up *)
let prop_crc_reference =
  QCheck.Test.make ~name:"crc32 = bitwise reference, lengths 0-300" ~count:600
    QCheck.(string_gen_of_size Gen.(int_bound 300) Gen.char)
    (fun s -> Frame.crc32 s = reference_crc s)

(* One frame as the byte-at-a-time CRC wrote it: a 58-byte LDIF
   fragment (seven 8-byte steps and a 2-byte tail). *)
let legacy_frame =
  "3a000000ef9480cc646e3a207569643d753170312c6f753d756e6974312c6f3d61636d650a\
   6f626a656374436c6173733a20706572736f6e0a7569643a2075317031"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* A CRC taken chunk by chunk, at every split point, is the CRC of the
   whole: what a streamed frame's header carries. *)
let test_crc_extend () =
  let s = String.init 300 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let b = Bytes.of_string s in
  check "empty prefix" true (Frame.crc_extend 0l b 0 300 = Frame.crc32 s);
  for cut = 0 to 300 do
    let head = Frame.crc_extend 0l b 0 cut in
    check "head" true (head = Frame.crc32 (String.sub s 0 cut));
    if Frame.crc_extend head b cut (300 - cut) <> Frame.crc32 s then
      Alcotest.failf "split at %d" cut
  done

let test_legacy_frame () =
  let raw = of_hex legacy_frame in
  match Frame.read raw 0 with
  | Frame.Record { payload; next } ->
      check_string "payload"
        "dn: uid=u1p1,ou=unit1,o=acme\nobjectClass: person\nuid: u1p1" payload;
      check_int "next" (String.length raw) next;
      check_string "re-encoded byte for byte" raw (Frame.encode payload)
  | Frame.Torn { reason; _ } -> Alcotest.failf "legacy frame torn: %s" reason
  | Frame.End -> Alcotest.fail "legacy frame read as End"

let prop_encode_parts =
  QCheck.Test.make ~name:"encode_parts = encode of the concatenation" ~count:300
    QCheck.(list_of_size Gen.(int_bound 5) (string_of_size Gen.(int_bound 40)))
    (fun parts ->
      Frame.encode_parts parts = Frame.encode (String.concat "" parts))

(* --- Codec ---------------------------------------------------------------- *)

let sample_ops =
  let counter = ref 1000 in
  List.concat_map
    (fun seed ->
      Gen.random_ops ~counter ~seed ~n:4 WP.schema WP.instance)
    [ 1; 2; 3 ]

let test_codec_roundtrip () =
  (* canonical encoding: decode-then-reencode is the identity on bytes *)
  List.iteri
    (fun i op ->
      let s = Codec.encode_txn ~lsn:(i + 1) [ op ] in
      match Codec.decode_txn s with
      | Error m -> Alcotest.failf "op %d does not decode: %s" i m
      | Ok (lsn, ops) ->
          check_int "lsn" (i + 1) lsn;
          check_string "reencode" s (Codec.encode_txn ~lsn ops))
    sample_ops;
  let s = Codec.encode_txn ~lsn:7 sample_ops in
  match Codec.decode_txn s with
  | Error m -> Alcotest.failf "txn does not decode: %s" m
  | Ok (lsn, ops) -> check_string "txn reencode" s (Codec.encode_txn ~lsn ops)

let test_codec_total () =
  (* every single-bit corruption decodes to Ok or Error, never raises;
     truncations likewise *)
  let s = Codec.encode_txn ~lsn:3 sample_ops in
  let flip i bit =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  in
  for i = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      match Codec.decode_txn (flip i bit) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "decode raised on bit %d of byte %d: %s" bit i
            (Printexc.to_string e)
    done;
    match Codec.decode_txn (String.sub s 0 i) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode raised on %d-byte prefix: %s" i
          (Printexc.to_string e)
  done

(* --- deterministic fault matrix ------------------------------------------- *)

(* staff entries under ou=attLabs (id 1) of the Figure-1 instance *)
let person ~id ~uid =
  Entry.make ~id ~rdn:("uid=" ^ uid)
    ~classes:(Oclass.set_of_list [ "staffmember"; "person"; "top" ])
    [ (a "name", Value.String ("name of " ^ uid)); (a "uid", Value.String uid) ]

let ins ?(parent = Some 1) id uid = [ Update.Insert { parent; entry = person ~id ~uid } ]
let txn1 = ins 100 "wal1"
let txn2 = ins 101 "wal2"
let txn3 = ins 102 "wal3"

let after txns = List.fold_left (fun i t -> Result.get_ok (Update.apply i t)) WP.instance txns

(* a store on a fresh in-memory fs with the Figure-1 seed *)
let fresh_store () =
  let fs = Io.fresh_fs () in
  let st = get_store "init" (Store.init (Io.mem fs) WP.schema WP.instance) in
  (fs, st)

let check_state what st expected =
  let d = Store.directory st in
  check what true (Instance.equal (Directory.instance d) expected);
  check (what ^ ": legal") true (Directory.validate d = [])

let reopen what fs = get_store what (Store.open_ (Io.mem fs))

let expect_recovered what ~offset ?reason report =
  match report.Store.tail with
  | Store.Clean -> Alcotest.failf "%s: tail reported clean" what
  | Store.Recovered_at { offset = o; reason = r } ->
      check_int (what ^ ": damage offset") offset o;
      (match reason with
      | Some reason -> check_string (what ^ ": reason") reason r
      | None -> ())

let r1 = Wal.record_size txn1

let test_truncated_tail () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  let raw = Option.get (Io.read_fs fs Store.wal_file) in
  Io.write_fs fs Store.wal_file (String.sub raw 0 (String.length raw - 3));
  let st', report = reopen "truncated tail" fs in
  check_int "lsn" 1 (Store.lsn st');
  check_int "replayed" 1 report.Store.replayed;
  check_int "skipped" 0 report.Store.skipped;
  expect_recovered "truncated tail" ~offset:r1 ~reason:"truncated frame payload"
    report;
  check_state "truncated tail" st' (after [ txn1 ]);
  (* the damaged tail was cut: the log reads clean again *)
  let scan = Wal.scan (Io.mem fs) Store.wal_file in
  check "log clean after recovery" true (scan.Wal.truncated = None);
  check_int "log bytes" r1 scan.Wal.end_offset;
  (* and future appends extend the durable prefix *)
  let _ = get_apply "t2 again" (Store.apply st' txn2) in
  let st'', report = reopen "after re-append" fs in
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "lsn" 2 (Store.lsn st'');
  check_state "after re-append" st'' (after [ txn1; txn2 ])

let test_torn_header () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  let raw = Option.get (Io.read_fs fs Store.wal_file) in
  Io.write_fs fs Store.wal_file (String.sub raw 0 (r1 + 5));
  let st', report = reopen "torn header" fs in
  check_int "lsn" 1 (Store.lsn st');
  expect_recovered "torn header" ~offset:r1 ~reason:"truncated frame header" report;
  check_state "torn header" st' (after [ txn1 ])

let test_torn_append () =
  (* the tear happens through the fault schedule this time: append of
     txn2 (mutating op 1) writes header_size + 2 bytes and dies *)
  let fs, st0 = fresh_store () in
  ignore st0;
  let faulty =
    Io.faulty ~faults:[ Io.Tear { op = 1; keep = Frame.header_size + 2 } ] (Io.mem fs)
  in
  let st, _ = get_store "open faulty" (Store.open_ faulty) in
  let _ = get_apply "t1" (Store.apply st txn1) in
  (match Store.apply st txn2 with
  | exception Io.Crash -> ()
  | Admission.Accepted _ -> Alcotest.fail "torn append was acknowledged"
  | Admission.Rejected _ -> Alcotest.fail "torn append was rejected, not crashed");
  let st', report = reopen "torn append" fs in
  check_int "lsn" 1 (Store.lsn st');
  expect_recovered "torn append" ~offset:r1 ~reason:"truncated frame payload" report;
  check_state "torn append" st' (after [ txn1 ])

let test_crc_flip () =
  (* silent single-bit corruption of the first record's payload: both
     appends are acknowledged, recovery keeps nothing (prefix ends at
     the flipped record) *)
  let fs, st0 = fresh_store () in
  ignore st0;
  let faulty =
    Io.faulty
      ~faults:[ Io.Flip { op = 0; byte = Frame.header_size + 3; bit = 5 } ]
      (Io.mem fs)
  in
  let st, _ = get_store "open faulty" (Store.open_ faulty) in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  let st', report = reopen "crc flip" fs in
  check_int "lsn" 0 (Store.lsn st');
  check_int "replayed" 0 report.Store.replayed;
  expect_recovered "crc flip" ~offset:0 ~reason:"crc mismatch" report;
  check_state "crc flip" st' WP.instance

let test_duplicate_tail () =
  (* crash between checkpoint-rename and log-reset: the new checkpoint
     already covers every logged record, so recovery skips them all *)
  let fs, st0 = fresh_store () in
  ignore st0;
  (* script ops: 0 append, 1 append, then full checkpoint = 2 tmp write,
     3 rename, 4 delta.log removal, 5 log reset; crash before the last
     two *)
  let faulty = Io.faulty ~faults:[ Io.Crash_at 4 ] (Io.mem fs) in
  let st, _ = get_store "open faulty" (Store.open_ faulty) in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  (match Store.checkpoint ~full:true st with
  | exception Io.Crash -> ()
  | () -> Alcotest.fail "checkpoint survived the scheduled crash");
  let st', report = reopen "duplicate tail" fs in
  check_int "lsn" 2 (Store.lsn st');
  check_int "checkpoint lsn" 2 report.Store.checkpoint_lsn;
  check_int "replayed" 0 report.Store.replayed;
  check_int "skipped" 2 report.Store.skipped;
  check "clean" true (report.Store.tail = Store.Clean);
  check_state "duplicate tail" st' (after [ txn1; txn2 ])

let test_lsn_gap () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  let _ = get_apply "t3" (Store.apply st txn3) in
  let raw = Option.get (Io.read_fs fs Store.wal_file) in
  let r2 = Wal.record_size txn2 in
  (* splice record 2 out: lsn 1 then lsn 3 *)
  Io.write_fs fs Store.wal_file
    (String.sub raw 0 r1
    ^ String.sub raw (r1 + r2) (String.length raw - r1 - r2));
  let st', report = reopen "lsn gap" fs in
  check_int "lsn" 1 (Store.lsn st');
  expect_recovered "lsn gap" ~offset:r1 ~reason:"lsn gap: expected 2, found 3"
    report;
  check_state "lsn gap" st' (after [ txn1 ])

let test_empty_log () =
  let fs, st0 = fresh_store () in
  ignore st0;
  (* zero-length log file *)
  let st', report = reopen "empty log" fs in
  check_int "lsn" 0 (Store.lsn st');
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "replayed" 0 report.Store.replayed;
  check_state "empty log" st' WP.instance;
  (* log file missing entirely *)
  Io.remove_fs fs Store.wal_file;
  let st'', report = reopen "missing log" fs in
  check "clean" true (report.Store.tail = Store.Clean);
  check_state "missing log" st'' WP.instance

let test_checkpoint_empty_log () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  Store.checkpoint ~full:true st;
  check_int "wal reset" 0 (Store.wal_bytes st);
  let st', report = reopen "checkpoint + empty log" fs in
  check_int "checkpoint lsn" 2 report.Store.checkpoint_lsn;
  check_int "lsn" 2 (Store.lsn st');
  check_int "replayed" 0 report.Store.replayed;
  check_int "skipped" 0 report.Store.skipped;
  check "clean" true (report.Store.tail = Store.Clean);
  check_state "checkpoint + empty log" st' (after [ txn1; txn2 ]);
  (* stats survived the compaction *)
  check_int "applied carried" 2 (Store.stats st').Checkpoint.applied

(* --- segment markers -------------------------------------------------------- *)

let marker = Wal.encode_record ~lsn:0 []
let rec_ lsn txn = Wal.encode_record ~lsn txn
let txn4 = ins 103 "wal4"

(* every record [records_from ~lsn:0] returns, re-encoded *)
let all_records st =
  match Store.records_from st ~lsn:0 with
  | `Records rs -> List.map (fun (lsn, ops) -> rec_ lsn ops) rs
  | `Too_old -> Alcotest.fail "records_from 0: too old"

let test_soft_checkpoint () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  Store.checkpoint st;
  check_int "one segment" 1 (Store.segments st);
  check "the log is its records then one marker" true
    (Io.read_fs fs Store.wal_file = Some (rec_ 1 txn1 ^ rec_ 2 txn2 ^ marker));
  check_int "log bytes" (2 * r1 + String.length marker) (Store.wal_bytes st);
  check_int "records kept" 2 (Store.wal_records st);
  let _ = get_apply "t3" (Store.apply st txn3) in
  Store.checkpoint st;
  check_int "two segments" 2 (Store.segments st);
  (* the base snapshot was not rewritten: still the lsn-0 image *)
  let meta =
    Result.get_ok (Checkpoint.read_meta (Io.mem fs) Store.checkpoint_file)
  in
  check_int "base lsn" 0 meta.Checkpoint.lsn;
  check "no delta.log" true (Io.read_fs fs Store.delta_file = None);
  check "records_from 0 is complete" true
    (all_records st = [ rec_ 1 txn1; rec_ 2 txn2; rec_ 3 txn3 ]);
  let st', report = reopen "marked reopen" fs in
  check_int "lsn" 3 (Store.lsn st');
  check_int "checkpoint lsn" 0 report.Store.checkpoint_lsn;
  check_int "segments" 2 report.Store.segments;
  check_int "replayed" 3 report.Store.replayed;
  check "clean" true (report.Store.tail = Store.Clean);
  check_state "marked" st' (after [ txn1; txn2; txn3 ]);
  (* no record since the last marker: no marker-only segment *)
  let bytes = Store.wal_bytes st' in
  Store.checkpoint st';
  check_int "no empty segment" 2 (Store.segments st');
  check_int "nothing appended" bytes (Store.wal_bytes st')

let test_collapse () =
  (* the log holds at most eight segments: eight checkpointed
     transactions fill it, the ninth checkpoint collapses it *)
  let fs, st = fresh_store () in
  let txns =
    List.init 9 (fun i -> ins (100 + i) (Printf.sprintf "wal%d" (i + 1)))
  in
  List.iteri
    (fun i txn ->
      let _ = get_apply (Printf.sprintf "t%d" (i + 1)) (Store.apply st txn) in
      Store.checkpoint st;
      if i < 8 then check_int "segments grow" (i + 1) (Store.segments st))
    txns;
  (* the log was at the threshold: the ninth collapsed to a full snapshot *)
  check_int "collapsed" 0 (Store.segments st);
  check_int "log reset" 0 (Store.wal_bytes st);
  let meta =
    Result.get_ok (Checkpoint.read_meta (Io.mem fs) Store.checkpoint_file)
  in
  check_int "snapshot lsn" 9 meta.Checkpoint.lsn;
  check_int "applied persisted" 9 meta.Checkpoint.applied;
  let st', report = reopen "collapse reopen" fs in
  check_int "lsn" 9 (Store.lsn st');
  check_int "checkpoint lsn" 9 report.Store.checkpoint_lsn;
  check_int "segments" 0 report.Store.segments;
  check "clean" true (report.Store.tail = Store.Clean);
  check_state "collapse" st' (after txns)

let test_torn_marker () =
  (* a torn marker append is a torn tail: recovery cuts it, and every
     acknowledged record before it stays *)
  let fs, st0 = fresh_store () in
  ignore st0;
  (* ops: 0 append, 1 append, 2 marker append *)
  let faulty = Io.faulty ~faults:[ Io.Tear { op = 2; keep = 5 } ] (Io.mem fs) in
  let st, _ = get_store "open faulty" (Store.open_ faulty) in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  (match Store.checkpoint st with
  | exception Io.Crash -> ()
  | () -> Alcotest.fail "soft checkpoint survived the scheduled tear");
  let st', report = reopen "torn marker" fs in
  check_int "lsn" 2 (Store.lsn st');
  check_int "replayed" 2 report.Store.replayed;
  check_int "no segment" 0 report.Store.segments;
  expect_recovered "torn marker" ~offset:(2 * r1)
    ~reason:"truncated frame header" report;
  check_state "torn marker" st' (after [ txn1; txn2 ]);
  (* the next soft checkpoint extends the cut log cleanly *)
  Store.checkpoint st';
  check_int "segment after heal" 1 (Store.segments st');
  let st'', report' = reopen "healed" fs in
  check_int "healed lsn" 2 (Store.lsn st'');
  check "healed clean" true (report'.Store.tail = Store.Clean);
  check_int "healed segments" 1 report'.Store.segments;
  check_state "healed" st'' (after [ txn1; txn2 ])

(* A store as an older build left it: [delta.log] and [wal.log] written
   byte for byte, the segment marker heading each copied segment.  Both
   recovery engines must open it at [lsn] on [txns], collapse it (no
   [delta.log] left, the snapshot at [lsn]), and reopen clean. *)
let check_legacy what ~delta ~wal ~lsn txns =
  let fs, st0 = fresh_store () in
  ignore st0;
  Io.write_fs fs Store.delta_file delta;
  Io.write_fs fs Store.wal_file wal;
  let st_c, _ =
    get_store (what ^ ": checked") (Store.Private.open_checked (Io.mem (Io.copy_fs fs)))
  in
  check_int (what ^ ": checked lsn") lsn (Store.lsn st_c);
  check_state (what ^ ": checked") st_c (after txns);
  let st, _ = reopen what fs in
  check_int (what ^ ": lsn") lsn (Store.lsn st);
  check_state what st (after txns);
  check (what ^ ": no delta.log") true (Io.read_fs fs Store.delta_file = None);
  let meta =
    Result.get_ok (Checkpoint.read_meta (Io.mem fs) Store.checkpoint_file)
  in
  check_int (what ^ ": collapsed") lsn meta.Checkpoint.lsn;
  check_int (what ^ ": applied carried") lsn meta.Checkpoint.applied;
  let st', report = reopen (what ^ ": reopen") fs in
  check (what ^ ": reopen clean") true (report.Store.tail = Store.Clean);
  check_int (what ^ ": reopen lsn") lsn (Store.lsn st');
  check_state (what ^ ": reopen") st' (after txns)

let test_legacy_segment () =
  (* two copied segments, then a log tail *)
  check_legacy "legacy segments"
    ~delta:(marker ^ rec_ 1 txn1 ^ rec_ 2 txn2 ^ marker ^ rec_ 3 txn3)
    ~wal:(rec_ 4 txn4) ~lsn:4 [ txn1; txn2; txn3; txn4 ]

let test_legacy_torn_segment () =
  (* the segment append tore inside its second record; the log, not yet
     reset, still holds both records *)
  let segment = marker ^ rec_ 1 txn1 ^ rec_ 2 txn2 in
  check_legacy "legacy torn segment"
    ~delta:(String.sub segment 0 (String.length marker + r1 + 10))
    ~wal:(rec_ 1 txn1 ^ rec_ 2 txn2) ~lsn:2 [ txn1; txn2 ]

let test_legacy_duplicate_log () =
  (* a crash between the segment append and the log reset: both files
     hold the same lsns, applied once and skipped once *)
  check_legacy "legacy duplicate log"
    ~delta:(marker ^ rec_ 1 txn1 ^ rec_ 2 txn2)
    ~wal:(rec_ 1 txn1 ^ rec_ 2 txn2) ~lsn:2 [ txn1; txn2 ]

let test_auto_checkpoint () =
  let fs = Io.fresh_fs () in
  let st =
    get_store "init"
      (Store.init ~auto_checkpoint:2 (Io.mem fs) WP.schema WP.instance)
  in
  let _ = get_apply "t1" (Store.apply st txn1) in
  check_int "no segment yet" 0 (Store.segments st);
  let _ = get_apply "t2" (Store.apply st txn2) in
  (* the second record crossed the threshold: its segment is marked *)
  check_int "one segment" 1 (Store.segments st);
  check_int "records kept" 2 (Store.wal_records st);
  let _ = get_apply "t3" (Store.apply st txn3) in
  let st', report = reopen "auto checkpoint" fs in
  check_int "lsn" 3 (Store.lsn st');
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "segments recovered" 1 report.Store.segments;
  check_int "replayed" 3 report.Store.replayed;
  check_state "auto checkpoint" st' (after [ txn1; txn2; txn3 ]);
  (* recovery counted t3 into the open segment: t4 closes it *)
  let st', _ =
    get_store "auto reopen" (Store.open_ ~auto_checkpoint:2 (Io.mem fs))
  in
  let _ = get_apply "t4" (Store.apply st' txn4) in
  check_int "second segment" 2 (Store.segments st')

(* A write whose append fails without crashing (ENOSPC, say) rolls back
   and counts nothing: [applied] moves only once a record is durable,
   and that is the figure a full checkpoint persists. *)
let test_failed_write_not_counted () =
  let fs, st0 = fresh_store () in
  ignore st0;
  let fail_next = ref false in
  let io = Io.mem fs in
  let io =
    {
      io with
      Io.append =
        (fun name data ->
          if !fail_next then begin
            fail_next := false;
            failwith "no space left on device"
          end
          else io.Io.append name data);
    }
  in
  let st, _ = get_store "open" (Store.open_ io) in
  let applied st = (Store.stats st).Checkpoint.applied in
  fail_next := true;
  (match Store.batch st (fun () -> ignore (Store.apply st txn1)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "failed batch append was acknowledged");
  check_int "failed batch: lsn" 0 (Store.lsn st);
  check_int "failed batch: applied" 0 (applied st);
  fail_next := true;
  (match Store.apply st txn1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "failed apply append was acknowledged");
  check_int "failed apply: lsn" 0 (Store.lsn st);
  check_int "failed apply: applied" 0 (applied st);
  check_state "failed apply" st WP.instance;
  let _ = get_apply "retry" (Store.apply st txn1) in
  check_int "retry: lsn" 1 (Store.lsn st);
  check_int "retry: applied" 1 (applied st);
  Store.checkpoint ~full:true st;
  let st', _ = reopen "after full checkpoint" fs in
  check_int "reopen: applied" 1 (applied st');
  check_state "reopen" st' (after [ txn1 ])

(* An accepted transaction with no ops changes nothing: it takes no lsn,
   adds no record, ships nothing and is not counted. *)
let test_empty_txn_not_logged () =
  let fs, st = fresh_store () in
  let shipped = ref 0 in
  Store.set_ship_hook st (Some (fun _ -> incr shipped));
  let _ = get_apply "t1" (Store.apply st txn1) in
  let wal = Io.read_fs fs Store.wal_file in
  let applied = (Store.stats st).Checkpoint.applied in
  (match Store.apply st [] with
  | Admission.Accepted { lsn = None; _ } -> ()
  | Admission.Accepted { lsn = Some l; _ } -> Alcotest.failf "empty apply took lsn %d" l
  | Admission.Rejected _ -> Alcotest.fail "empty apply rejected");
  check_int "lsn" 1 (Store.lsn st);
  check "WAL bytes untouched" true (Io.read_fs fs Store.wal_file = wal);
  check_int "wal_records" 1 (Store.wal_records st);
  check_int "shipped once, for t1" 1 !shipped;
  check_int "applied" applied (Store.stats st).Checkpoint.applied;
  (* in a batch, only the insert is logged *)
  let (), verdicts =
    Store.batch st (fun () ->
        ignore (Store.apply st []);
        ignore (Store.apply st txn2))
  in
  check "batch lsns" true (List.map Admission.lsn verdicts = [ None; Some 2 ]);
  check "one record added" true
    (Io.read_fs fs Store.wal_file = Some (rec_ 1 txn1 ^ rec_ 2 txn2));
  check_int "shipped t2" 2 !shipped;
  let st', _ = reopen "after empty transactions" fs in
  check_int "recovered lsn" 2 (Store.lsn st');
  check_state "after empty transactions" st' (after [ txn1; txn2 ])

(* Older builds logged empty transactions: such a record at lsn 1 still
   takes its lsn in recovery, and later records follow it. *)
let test_legacy_empty_record () =
  let fs, _ = fresh_store () in
  Io.write_fs fs Store.wal_file (rec_ 1 [] ^ rec_ 2 txn1);
  let st, report = reopen "legacy empty record" fs in
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "replayed" 2 report.Store.replayed;
  check_int "lsn" 2 (Store.lsn st);
  check_state "legacy empty record" st (after [ txn1 ]);
  let _ = get_apply "t2" (Store.apply st txn2) in
  check_int "next lsn" 3 (Store.lsn st)

let test_init_guards () =
  let fs, st0 = fresh_store () in
  ignore st0;
  (match Store.init (Io.mem fs) WP.schema WP.instance with
  | Error Store.Already_a_store -> ()
  | _ -> Alcotest.fail "re-init did not refuse");
  match Store.open_ (Io.mem (Io.fresh_fs ())) with
  | Error (Store.Not_a_store _) -> ()
  | _ -> Alcotest.fail "open of nothing did not say Not_a_store"

(* --- crash-point property -------------------------------------------------- *)

(* One scripted session: some transactions, a soft checkpoint (one
   segment marker) in the middle, more transactions, and a full
   (collapse) checkpoint at the end — so the crash points cover every
   intermediate state of both compactions (the marker append, and
   snapshot-rewrite + delta.log removal + log-reset over a marked log).
   [run] drives it against any handle, counting the transactions
   acknowledged before a crash (if any). *)
type script = {
  schema : Schema.t;
  seed_inst : Instance.t;
  txns : Update.op list list;  (* every one accepted in the clean run *)
  ckpt_after : int;  (* soft checkpoint once this many txns are in *)
  ckpt_full_after : int;  (* full checkpoint once this many txns are in *)
  states : Instance.t array;  (* states.(k) = seed + first k txns *)
}

let run_script script io =
  match Store.open_ io with
  | Error e -> Alcotest.failf "script open: %s" (Store.error_to_string e)
  | Ok (st, _) ->
      let acked = ref 0 in
      (try
         List.iteri
           (fun i txn ->
             (match Store.apply st txn with
             | Admission.Accepted _ -> incr acked
             | Admission.Rejected { reason; _ } ->
                 Alcotest.failf "script txn %d rejected: %s" i
                   (Format.asprintf "%a" Monitor.pp_rejection reason));
             if i + 1 = script.ckpt_after then Store.checkpoint st;
             if i + 1 = script.ckpt_full_after then
               Store.checkpoint ~full:true st)
           script.txns
       with Io.Crash -> ());
      !acked

(* Build a deterministic script on a prepared base fs.  Transactions are
   generated against the evolving instance and filtered to the accepted
   ones, so the script itself is replayable. *)
let make_script seed =
  let units = 1 + (seed mod 2) in
  let inst0 = WP.generate ~seed ~units ~persons_per_unit:1 () in
  let fs = Io.fresh_fs () in
  let st = get_store "script init" (Store.init (Io.mem fs) WP.schema inst0) in
  let counter = ref 10_000 in
  let n_txns = 3 + (seed mod 2) in
  let txns = ref [] and states = ref [ inst0 ] in
  for i = 0 to n_txns - 1 do
    let cur = Directory.instance (Store.directory st) in
    let txn =
      Gen.random_ops ~counter ~seed:(seed + (31 * i)) ~n:(1 + (i mod 2))
        WP.schema cur
    in
    match Store.apply st txn with
    | Admission.Accepted _ ->
        txns := txn :: !txns;
        states := Directory.instance (Store.directory st) :: !states
    | Admission.Rejected _ -> () (* rejected: not part of the script *)
  done;
  let txns = List.rev !txns in
  ( {
      schema = WP.schema;
      seed_inst = inst0;
      txns;
      ckpt_after = (List.length txns + 1) / 2;
      ckpt_full_after = List.length txns;
      states = Array.of_list (List.rev !states);
    },
    inst0 )

(* All mutating operations of a clean scripted run, with payload sizes:
   the universe of crash points. *)
let trace_script script base =
  let fs = Io.copy_fs base in
  let io, trace = Io.counting (Io.mem fs) in
  let acked = run_script script io in
  check_int "clean run acks everything" (List.length script.txns) acked;
  trace ()

let obligation_queries schema =
  List.map (fun (_, q, _) -> q) (Translate.all schema.Schema.structure)

let check_recovery ~what script fs acked =
  (* the checked replay path (full admission per record) must reproduce
     the same acknowledged prefix as the trusted default below, on a
     copy of the same on-disk state *)
  (match Store.Private.open_checked (Io.mem (Io.copy_fs fs)) with
  | Error e ->
      Alcotest.failf "%s: checked recovery failed: %s" what
        (Store.error_to_string e)
  | Ok (st_c, _) ->
      if Store.lsn st_c <> acked then
        Alcotest.failf "%s: checked recovery lsn %d, %d acknowledged" what
          (Store.lsn st_c) acked;
      if
        not
          (Instance.equal
             (Directory.instance (Store.directory st_c))
             script.states.(acked))
      then
        Alcotest.failf "%s: checked recovery differs from acknowledged prefix"
          what);
  match Store.open_ (Io.mem fs) with
  | Error e ->
      Alcotest.failf "%s: recovery failed: %s" what (Store.error_to_string e)
  | Ok (st, report) ->
      let d = Store.directory st in
      if Store.lsn st <> acked then
        Alcotest.failf "%s: recovered lsn %d, %d acknowledged (report: %s)" what
          (Store.lsn st) acked
          (Format.asprintf "%a" Store.pp_report report);
      let expected = script.states.(acked) in
      if not (Instance.equal (Directory.instance d) expected) then
        Alcotest.failf "%s: recovered instance differs from acknowledged prefix"
          what;
      (match Directory.validate d with
      | [] -> ()
      | vs -> Alcotest.failf "%s: recovered directory illegal (%d)" what (List.length vs));
      (* obligation answers match a fresh snapshot of the same state *)
      let snap = Directory.Snapshot.of_instance expected in
      List.iter
        (fun q ->
          if Directory.query_ids d q <> Directory.Snapshot.query_ids snap q then
            Alcotest.failf "%s: query answers differ after recovery" what)
        (obligation_queries script.schema);
      (* the session must remain usable: append the next scripted txn *)
      match List.nth_opt script.txns acked with
      | None -> ()
      | Some txn -> (
          match Store.apply st txn with
          | Admission.Rejected { reason; _ } ->
              Alcotest.failf "%s: resume txn rejected: %s" what
                (Format.asprintf "%a" Monitor.pp_rejection reason)
          | Admission.Accepted _ ->
              if
                not
                  (Instance.equal
                     (Directory.instance (Store.directory st))
                     script.states.(acked + 1))
              then Alcotest.failf "%s: resumed state differs" what)

let crash_points trace =
  List.concat_map
    (fun (op, size) ->
      let tears =
        if size = 0 then []
        else if size <= 256 then
          (* every intra-record byte boundary of a log record *)
          List.init size (fun keep -> Io.Tear { op; keep })
        else
          (* large payloads (checkpoint images): sample the edges *)
          [ Io.Tear { op; keep = 1 }; Io.Tear { op; keep = size / 2 };
            Io.Tear { op; keep = size - 1 } ]
      in
      Io.Crash_at op :: tears)
    trace

let prop_crash_recovery =
  QCheck.Test.make ~name:"recovery = acknowledged prefix, at every crash point"
    ~count:6
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      (* base: an initialized store on an in-memory fs *)
      let script, inst0 = make_script seed in
      let base = Io.fresh_fs () in
      let _ =
        get_store "base init" (Store.init (Io.mem base) script.schema inst0)
      in
      let trace = trace_script script base in
      List.iter
        (fun fault ->
          let what =
            match fault with
            | Io.Crash_at op -> Printf.sprintf "seed %d: crash at op %d" seed op
            | Io.Tear { op; keep } ->
                Printf.sprintf "seed %d: tear op %d at byte %d" seed op keep
            | Io.Flip _ -> assert false
          in
          let fs = Io.copy_fs base in
          let acked = run_script script (Io.faulty ~faults:[ fault ] (Io.mem fs)) in
          check_recovery ~what script fs acked)
        (crash_points trace);
      true)

(* Interning is stable across durability: recovery decodes the very
   strings the log and checkpoint encoded, [Intern.share] finds the
   existing pool slots, so every live string resolves to the same id as
   before the crash, every recovered attribute and string value is
   physically the canonical copy ([==], not just [=]), and a second
   recovery of the same bytes mints no new ids at all (the pools are at
   a fixed point). *)
let prop_intern_stable_across_recovery =
  QCheck.Test.make ~name:"intern ids stable across checkpoint/recover"
    ~count:30
    QCheck.(make ~print:(Printf.sprintf "seed=%d") Gen.(int_bound 10_000))
    (fun seed ->
      let script, _ = make_script seed in
      let fs = Io.fresh_fs () in
      let st =
        get_store "intern init"
          (Store.init (Io.mem fs) script.schema script.seed_inst)
      in
      List.iteri
        (fun i txn ->
          ignore (get_apply "intern txn" (Store.apply st txn));
          if i + 1 = script.ckpt_after then Store.checkpoint st)
        script.txns;
      Store.close st;
      (* the id every attribute and string value resolves to pre-recovery *)
      let witness inst =
        Instance.fold
          (fun e acc ->
            List.fold_left
              (fun acc (at, v) ->
                let s = Attr.to_string at in
                let acc = (s, Intern.find_id Intern.attr s) :: acc in
                match v with
                | Value.String p | Value.Dn p ->
                    (p, Intern.find_id Intern.value p) :: acc
                | Value.Int _ | Value.Bool _ -> acc)
              acc (Entry.stored_pairs e))
          inst []
      in
      let final = script.states.(List.length script.txns) in
      let before = witness final in
      if List.exists (fun (_, i) -> i = None) before then
        QCheck.Test.fail_report "live strings missing from the pools";
      let st', _ = get_store "intern reopen" (Store.open_ (Io.mem fs)) in
      let recovered = Directory.instance (Store.directory st') in
      let canonical =
        Instance.fold
          (fun e ok ->
            ok
            && List.for_all
                 (fun (at, v) ->
                   let s = Attr.to_string at in
                   Intern.share Intern.attr s == s
                   &&
                   match v with
                   | Value.String p | Value.Dn p ->
                       Intern.share Intern.value p == p
                   | Value.Int _ | Value.Bool _ -> true)
                 (Entry.stored_pairs e))
          recovered true
      in
      let after_ids = witness recovered in
      Store.close st';
      let sizes () = List.map (fun s -> s.Intern.distinct) (Intern.stats ()) in
      let s0 = sizes () in
      let st'', _ =
        get_store "intern reopen2" (Store.open_ (Io.mem (Io.copy_fs fs)))
      in
      let s1 = sizes () in
      Store.close st'';
      canonical
      && List.sort compare before = List.sort compare after_ids
      && s0 = s1)

(* --- trusted replay and bulk ingest ---------------------------------------- *)

let test_ingest_modes () =
  (* the same three-record tail recovered through trusted replay lands
     on the same state as checked replay *)
  List.iter
    (fun (label, open_) ->
      let fs, st = fresh_store () in
      let _ = get_apply "t1" (Store.apply st txn1) in
      let _ = get_apply "t2" (Store.apply st txn2) in
      let _ = get_apply "t3" (Store.apply st txn3) in
      let st', report = get_store label (open_ (Io.mem fs)) in
      check (label ^ ": clean") true (report.Store.tail = Store.Clean);
      check_int (label ^ ": lsn") 3 (Store.lsn st');
      check_int (label ^ ": replayed") 3 report.Store.replayed;
      check_state label st' (after [ txn1; txn2; txn3 ]);
      (* the recovered session stays writable through the normal path *)
      let txn4 = ins 103 "wal4" in
      let _ = get_apply (label ^ ": t4") (Store.apply st' txn4) in
      check_state (label ^ ": after append") st'
        (after [ txn1; txn2; txn3; txn4 ]))
    [ ("checked", Store.Private.open_checked); ("trusted", fun io -> Store.open_ io) ]

let orgunit_entry ~id ~ou =
  Entry.make ~id ~rdn:("ou=" ^ ou)
    ~classes:(Oclass.set_of_list [ "orgunit"; "orggroup"; "top" ])
    [ (a "ou", Value.String ou) ]

(* an orgunit with no person descendant: illegal under the schema *)
let ghost = [ (Some 0, orgunit_entry ~id:400 ~ou:"ghost") ]

let feed entries add =
  List.fold_left
    (fun acc (parent, e) ->
      match acc with Error _ as err -> err | Ok () -> add ~parent e)
    (Ok ()) entries

let store_files fs =
  List.map (Io.read_fs fs) [ Store.schema_file; Store.checkpoint_file; Store.wal_file ]

let test_illegal_tail () =
  (* a CRC-valid next-lsn record that was never admitted: trusted
     recovery folds it in, and the one admission scan of the recovered
     instance refuses the open without cutting any log *)
  let fs, st = fresh_store () in
  Store.close st;
  let parent, entry = List.hd ghost in
  Wal.append_raw (Io.mem fs) Store.wal_file
    (Wal.encode_record ~lsn:1 [ Update.Insert { parent; entry } ]);
  let before = store_files fs in
  (match Store.open_ (Io.mem fs) with
  | Error (Store.Illegal _) -> ()
  | Ok _ -> Alcotest.fail "trusted recovery opened an illegal directory"
  | Error e -> Alcotest.failf "unexpected open error: %s" (Store.error_to_string e));
  check "files unchanged by the refused open" true (store_files fs = before);
  (* the checked twin rejects the record itself and truncates there *)
  let st', report = get_store "checked" (Store.Private.open_checked (Io.mem fs)) in
  check_int "checked lsn" 0 (Store.lsn st');
  expect_recovered "checked" ~offset:0 report;
  check_state "checked" st' WP.instance

let test_trusted_load_then_write () =
  (* a trusted load that voids the invariant stays caught when a logged
     write follows it: the reopen scans checkpoint plus tail *)
  let fs, st = fresh_store () in
  (match Store.load ~trust:true st (feed ghost) with
  | Error e -> Alcotest.failf "trusted load: %s" (Store.error_to_string e)
  | Ok n -> check_int "trusted entries" 1 n);
  let _ = get_apply "t1" (Store.apply st txn1) in
  check_int "logged" 1 (Store.wal_records st);
  match Store.open_ (Io.mem fs) with
  | Error (Store.Illegal _) -> ()
  | Ok _ -> Alcotest.fail "reopen after a trusted illegal load succeeded"
  | Error e -> Alcotest.failf "unexpected open error: %s" (Store.error_to_string e)

let test_bulk_load () =
  let fs, st = fresh_store () in
  let _ = get_apply "t1" (Store.apply st txn1) in
  (* a lab with two people: passes the single final admission check *)
  let good =
    [
      (Some 0, orgunit_entry ~id:300 ~ou:"newlab");
      (Some 300, person ~id:301 ~uid:"bulk1");
      (Some 300, person ~id:302 ~uid:"bulk2");
    ]
  in
  (match Store.load st (feed good) with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok n -> check_int "entries loaded" 3 n);
  let expected =
    after
      (txn1
      :: List.map
           (fun (parent, entry) -> [ Update.Insert { parent; entry } ])
           good)
  in
  check_state "after load" st expected;
  (* the load committed by checkpoint replace + log reset *)
  check_int "log reset" 0 (Store.wal_records st);
  let st', report = reopen "after load" fs in
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "replayed" 0 report.Store.replayed;
  check_state "reopened after load" st' expected;
  (* an orgunit with no person descendant fails the admission check;
     nothing is committed *)
  (match Store.load st' (feed ghost) with
  | Error (Store.Illegal _) -> ()
  | Ok _ -> Alcotest.fail "illegal load was committed"
  | Error e ->
      Alcotest.failf "unexpected load error: %s" (Store.error_to_string e));
  check_state "unchanged after rejected load" st' expected;
  (* ... unless the caller takes responsibility with [trust], which
     commits the dump and voids the legality invariant *)
  (match Store.load ~trust:true st' (feed ghost) with
  | Error e -> Alcotest.failf "trusted load: %s" (Store.error_to_string e)
  | Ok n -> check_int "trusted entries" 1 n);
  check "trusted load voided the invariant" false
    (Directory.validate (Store.directory st') = [])

(* --- real files ------------------------------------------------------------ *)

let test_real_io () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "bounds-store-test" in
  (* stale state from a previous run must not fail init *)
  if Sys.file_exists root then
    Array.iter
      (fun f -> Sys.remove (Filename.concat root f))
      (Sys.readdir root);
  let io = Io.real ~root () in
  let st = get_store "init" (Store.init io WP.schema WP.instance) in
  let _ = get_apply "t1" (Store.apply st txn1) in
  let _ = get_apply "t2" (Store.apply st txn2) in
  Store.close st;
  let st', report = get_store "reopen" (Store.open_ (Io.real ~root ())) in
  check "clean" true (report.Store.tail = Store.Clean);
  check_int "lsn" 2 (Store.lsn st');
  check_state "real io" st' (after [ txn1; txn2 ]);
  Store.close st'

let () =
  Alcotest.run "store"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn and flipped" `Quick test_frame_torn;
          Alcotest.test_case "crc known answers" `Quick test_crc_known_answers;
          Alcotest.test_case "crc extends chunk by chunk" `Quick test_crc_extend;
          QCheck_alcotest.to_alcotest prop_crc_reference;
          Alcotest.test_case "legacy frame" `Quick test_legacy_frame;
          QCheck_alcotest.to_alcotest prop_encode_parts;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "total on damage" `Quick test_codec_total;
        ] );
      ( "faults",
        [
          Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
          Alcotest.test_case "torn header" `Quick test_torn_header;
          Alcotest.test_case "torn append" `Quick test_torn_append;
          Alcotest.test_case "crc flip" `Quick test_crc_flip;
          Alcotest.test_case "duplicate tail" `Quick test_duplicate_tail;
          Alcotest.test_case "lsn gap" `Quick test_lsn_gap;
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "checkpoint + empty log" `Quick
            test_checkpoint_empty_log;
          Alcotest.test_case "delta checkpoint" `Quick test_soft_checkpoint;
          Alcotest.test_case "delta collapse" `Quick test_collapse;
          Alcotest.test_case "torn marker" `Quick test_torn_marker;
          Alcotest.test_case "legacy segments" `Quick test_legacy_segment;
          Alcotest.test_case "delta torn segment" `Quick
            test_legacy_torn_segment;
          Alcotest.test_case "delta duplicate log" `Quick
            test_legacy_duplicate_log;
          Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
          Alcotest.test_case "failed write not counted" `Quick
            test_failed_write_not_counted;
          Alcotest.test_case "init guards" `Quick test_init_guards;
          Alcotest.test_case "empty transaction not logged" `Quick
            test_empty_txn_not_logged;
          Alcotest.test_case "older build's empty record" `Quick
            test_legacy_empty_record;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "ingest modes" `Quick test_ingest_modes;
          Alcotest.test_case "bulk load" `Quick test_bulk_load;
          Alcotest.test_case "illegal tail" `Quick test_illegal_tail;
          Alcotest.test_case "trusted load then write" `Quick
            test_trusted_load_then_write;
        ] );
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest prop_crash_recovery;
          QCheck_alcotest.to_alcotest prop_intern_stable_across_recovery;
          Alcotest.test_case "real files" `Quick test_real_io;
        ] );
    ]
