(* The traced run: the run's seeded inputs replayed in-process through
   each layer's public functions, every call timed as a span with its
   Gc.quick_stat deltas.  It runs in a fresh process on copies of the
   stores set-up left, and it checks itself: the recomposed write path
   must end where Store.apply ends (instance, lsn, WAL bytes) and the
   recomposed recovery where Store.open_ ends (instance).

   Output: one "metric NAME VALUE UNIT" line per per-layer metric. *)

open Bounds_model
open Bounds_core
open Perfbench
module Store = Bounds_store.Store
module Io = Bounds_store.Io
module Wal = Bounds_store.Wal
module Checkpoint = Bounds_store.Checkpoint
module Index = Bounds_query.Index
module Vindex = Bounds_query.Vindex
module Plan = Bounds_query.Plan
module Proto = Bounds_net.Proto
module Server = Bounds_net.Server

let fail fmt = Printf.ksprintf failwith fmt

(* --- spans ------------------------------------------------------------- *)

(* Minor words come from Gc.minor_words, which counts the words in the
   current minor heap too; Gc.quick_stat's figure only moves when a
   minor collection completes. *)

type span = {
  mutable calls : int;
  mutable secs : float;
  mutable minor_words : float;
  mutable major_gcs : int;
}

let spans : (string, span) Hashtbl.t = Hashtbl.create 64

let span name =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
      let s = { calls = 0; secs = 0.; minor_words = 0.; major_gcs = 0 } in
      Hashtbl.replace spans name s;
      s

let timed name f =
  let s = span name in
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  s.calls <- s.calls + 1;
  s.secs <- s.secs +. (t1 -. t0);
  s.minor_words <- s.minor_words +. (w1 -. w0);
  s.major_gcs <- s.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  r

let mean_secs name =
  let s = span name in
  if s.calls = 0 then fail "span %s never ran" name else s.secs /. float_of_int s.calls

let out = ref []
let emit name value unit_ = out := (name, value, unit_) :: !out

(* The span's mean per call in [unit_] (as [metric], by default the span
   name with the unit appended) plus its GC deltas. *)
let emit_span ?(unit_ = "ms") ?metric name =
  let metric = Option.value metric ~default:(name ^ "_" ^ unit_) in
  let s = span name in
  emit metric (mean_secs name *. if unit_ = "ms" then 1000. else 1.) unit_;
  emit (name ^ ".minor_words") (s.minor_words /. float_of_int s.calls) "words";
  emit (name ^ ".major_gcs") (float_of_int s.major_gcs) "count"

let top_heap phase =
  emit ("gc.top_heap_mb." ^ phase)
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.)
    "MiB"

let ok what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* --- recovery ------------------------------------------------------------ *)

(* Store.open_ taken apart: checkpoint read, the session build
   Directory.open_ performs (index, value index, admission scan), then
   the delta chain and WAL replayed through Directory.Bulk under the
   lsn discipline.  Returns the recovered instance. *)
let recovery_parts io =
  let schema =
    match io.Io.read Store.schema_file with
    | None -> fail "no schema"
    | Some s -> Spec_parser.parse s |> Result.map_error Spec_parser.error_to_string |> ok "schema"
  in
  let meta, inst =
    timed "store.checkpoint_read" (fun () ->
        Checkpoint.read io Store.checkpoint_file ~typing:schema.Schema.typing)
    |> ok "checkpoint"
  in
  let index = timed "query.index_build" (fun () -> Index.create inst) in
  let vindex = timed "query.vindex_build" (fun () -> Vindex.create index) in
  let memo = Plan.memo_create vindex in
  ignore
    (timed "core.admission_scan" (fun () ->
         Monitor.create ~index ~vindex ~memo schema inst)
    |> Result.map_error (fun _ -> "illegal checkpoint")
    |> ok "admission");
  (* Bulk needs a session; building it repeats the three stages above,
     outside any span *)
  let dir0 = Directory.open_ schema inst |> Result.map_error (fun _ -> "illegal") |> ok "open" in
  let inst =
    timed "store.tail_replay" (fun () ->
        let bulk = Directory.Bulk.start dir0 in
        let cur = ref meta.Checkpoint.lsn in
        let replay file =
          ignore
            (Wal.fold io file
               (fun () (r : Wal.record) ->
                 if r.lsn = !cur + 1 then begin
                   (match Directory.Bulk.add bulk r.ops with
                   | Ok () -> ()
                   | Error _ -> fail "tail record %d does not replay" r.lsn);
                   cur := r.lsn
                 end)
               ())
        in
        replay Store.delta_file;
        replay Store.wal_file;
        Directory.instance (Directory.Bulk.finish bulk))
  in
  inst

(* --- reads ----------------------------------------------------------------- *)

let trace_reads snap (reads : Inputs.read array) =
  let inst = Directory.Snapshot.instance snap in
  let index = Directory.Snapshot.Private.index snap in
  let n = Index.n index in
  let bytes = Hashtbl.create 3 and scanned = Hashtbl.create 3 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.) in
  Array.iter
    (fun (r : Inputs.read) ->
      let c = Inputs.cls_name r.cls in
      let base () =
        Option.map
          (fun dn ->
            match Instance.resolve_dn inst dn with
            | Some id -> id
            | None -> fail "base %s not found" dn)
          r.base
      in
      let ids, scope =
        match r.cls with
        | Inputs.Lookup | Inputs.Search ->
            let f =
              timed ("query.parse." ^ c) (fun () -> Bounds_query.Filter_parser.parse r.text)
              |> Result.map_error Parse_error.to_string |> ok "filter"
            in
            let ids, base =
              timed ("query.eval." ^ c) (fun () ->
                  let base = base () in
                  (Directory.Snapshot.search snap ~base Bounds_query.Search.Subtree f, base))
            in
            let scope =
              match base with
              | None -> n
              | Some id ->
                  let rk = Index.rank index id in
                  Index.extent_of_rank index rk - rk + 1
            in
            (ids, scope)
        | Inputs.Query ->
            let q =
              timed ("query.parse." ^ c) (fun () -> Bounds_query.Query_parser.parse r.text)
              |> Result.map_error Parse_error.to_string |> ok "query"
            in
            (timed ("query.eval." ^ c) (fun () -> Directory.Snapshot.query_ids_ro snap q), n)
      in
      let dns = timed ("model.dn_render." ^ c) (fun () -> List.map (Instance.dn inst) ids) in
      let body = String.concat "\n" (string_of_int (List.length ids) :: dns) in
      ok ("traced " ^ c) (Inputs.check r body);
      let served =
        timed ("server.serve." ^ c) (fun () ->
            match r.cls with
            | Inputs.Query -> Server.serve_query snap r.text
            | Inputs.Lookup | Inputs.Search ->
                Server.serve_search snap ~base:r.base ~scope:"sub" ~filter:r.text)
      in
      if served <> Proto.Reply body then fail "served %s differs from the traced layers" c;
      bump bytes c (float_of_int (String.length body));
      bump scanned c (float_of_int scope /. float_of_int (max 1 (List.length ids))))
    reads;
  let per_class tbl c =
    let k = Array.fold_left (fun k (r : Inputs.read) -> if Inputs.cls_name r.cls = c then k + 1 else k) 0 reads in
    Hashtbl.find tbl c /. float_of_int k
  in
  let parse_calls, parse_secs =
    List.fold_left
      (fun (k, s) (_, c) ->
        let sp = span ("query.parse." ^ c) in
        (k + sp.calls, s +. sp.secs))
      (0, 0.) Inputs.classes
  in
  emit "query.parse_ms" (1000. *. parse_secs /. float_of_int parse_calls) "ms";
  List.iter
    (fun (_, c) ->
      emit_span ("query.eval." ^ c) ~metric:("query.eval_ms." ^ c);
      emit_span ("model.dn_render." ^ c) ~metric:("model.dn_render_ms." ^ c);
      emit_span ("server.serve." ^ c) ~metric:("server.serve_ms." ^ c);
      emit ("net.reply_bytes." ^ c) (per_class bytes c) "B";
      emit ("query.scanned_per_result." ^ c) (per_class scanned c) "count")
    Inputs.classes

(* Mean per-class in-process layer time (parse + eval + render), ms —
   what the end-to-end mean is compared with. *)
let layer_ms c =
  1000.
  *. (mean_secs ("query.parse." ^ c) +. mean_secs ("query.eval." ^ c)
     +. mean_secs ("model.dn_render." ^ c))

(* --- writes ---------------------------------------------------------------- *)

(* The write path taken apart — parse_changes, Monitor.apply,
   Vindex.apply, Plan.memo_apply, WAL encode and append, and the
   materialize the next read pays — next to Store.apply on the same ops
   against the same store, which must end in the same instance, lsn and
   WAL bytes. *)
let trace_writes st ~counted ~root ~store_root texts =
  let typing = (Store.schema st).Schema.typing in
  let d0 = Store.directory st in
  let snap0 = Directory.snapshot d0 in
  let wal_io = Io.real ~root () in
  let mon = ref (Directory.monitor d0) in
  let vindex = ref (Directory.Snapshot.Private.vindex snap0) in
  let memo = ref (Directory.Snapshot.Private.memo snap0) in
  let lsn = ref (Store.lsn st) in
  let wal0 = Store.wal_bytes st in
  let written = Buffer.create 4096 in
  let ops_before = List.length (counted ()) in
  List.iter
    (fun text ->
      let ops =
        timed "codec.parse_changes" (fun () ->
            Bounds_codec.Ldif.parse_changes ~typing (Monitor.instance !mon) text)
        |> ok "parse_changes"
      in
      let m, splices =
        timed "core.admit" (fun () -> Monitor.apply ops !mon)
        |> Result.map_error (Format.asprintf "%a" Monitor.pp_rejection)
        |> ok "admission"
      in
      let index = Monitor.index m in
      let v = timed "query.vindex_patch" (fun () -> Vindex.apply ~index ops !vindex) in
      memo := timed "query.memo_migrate" (fun () -> Plan.memo_apply ~vindex:v ~splices ops !memo);
      mon := m;
      vindex := v;
      incr lsn;
      let record = timed "store.wal_encode" (fun () -> Wal.encode_record ~lsn:!lsn ops) in
      timed "store.wal_append" (fun () -> wal_io.Io.append Store.wal_file record);
      Buffer.add_string written record;
      timed "query.materialize" (fun () -> Index.materialize index);
      match Store.apply st ops with
      | Admission.Accepted _ -> ()
      | Admission.Rejected _ -> fail "Store.apply rejected a traced transaction")
    texts;
  let txns = List.length texts in
  let store_ops = List.length (counted ()) - ops_before in
  if not (Instance.equal (Monitor.instance !mon) (Directory.instance (Store.directory st))) then
    fail "recomposed write path and Store.apply end in different instances";
  if !lsn <> Store.lsn st then fail "recomposed lsn %d, Store.apply lsn %d" !lsn (Store.lsn st);
  let wal =
    In_channel.with_open_bin (Filename.concat store_root Store.wal_file) In_channel.input_all
  in
  let n = Buffer.length written in
  if
    Store.wal_bytes st - wal0 <> n
    || String.length wal < n
    || String.sub wal (String.length wal - n) n <> Buffer.contents written
  then fail "recomposed WAL bytes differ from what Store.apply logged";
  List.iter emit_span
    [
      "codec.parse_changes";
      "core.admit";
      "query.vindex_patch";
      "query.memo_migrate";
      "store.wal_encode";
      "store.wal_append";
      "query.materialize";
    ];
  emit "store.appends_per_tx" (float_of_int store_ops /. float_of_int txns) "count";
  emit "store.wal_bytes_per_tx" (float_of_int n /. float_of_int txns) "B"

(* --- replication ------------------------------------------------------------ *)

let trace_replica rs records =
  List.iter
    (fun (lsn, ops) ->
      let item = Proto.Ship { lsn; ops } in
      (match timed "net.ship_codec" (fun () -> Proto.decode_stream (Proto.encode_stream item)) with
      | Ok decoded when decoded = item -> ()
      | _ -> fail "record %d does not survive the ship codec" lsn);
      ignore (timed "core.replay" (fun () -> Directory.replay (Store.directory rs) ops));
      match timed "store.replica_apply" (fun () -> Store.replica_apply rs ~lsn ops) with
      | Ok `Applied -> ()
      | Ok `Duplicate -> fail "record %d already applied" lsn
      | Error e -> fail "replica_apply %d: %s" lsn e)
    records;
  List.iter emit_span [ "net.ship_codec"; "store.replica_apply"; "core.replay" ]

(* --- the run ------------------------------------------------------------------ *)

let traced_reads = 600
let traced_txns = 16

let main ~dir ~tag =
  let plan = Inputs.read_plan (Filename.concat dir "plan.tsv") in
  let work = Filename.concat dir "trace" in
  Setup.rm_rf work;
  Sys.mkdir work 0o755;
  let primary = Filename.concat work "primary" and replica = Filename.concat work "replica" in
  Setup.copy_dir (Filename.concat dir "pristine/primary") primary;
  Setup.copy_dir (Filename.concat dir "pristine/replica") replica;
  (* recovery *)
  let parts = recovery_parts (Io.real ~root:primary ()) in
  Gc.full_major ();
  let io, counted = Io.counting (Io.real ~root:primary ()) in
  let st, _ =
    timed "store.open" (fun () -> Store.open_ io)
    |> Result.map_error Store.error_to_string |> ok "Store.open_"
  in
  if not (Instance.equal parts (Directory.instance (Store.directory st))) then
    fail "recovery parts and Store.open_ recover different instances";
  List.iter (emit_span ~unit_:"s")
    [
      "store.checkpoint_read";
      "query.index_build";
      "query.vindex_build";
      "core.admission_scan";
      "store.tail_replay";
      "store.open";
    ];
  top_heap "recovery";
  (* reads: the head of the run's stream, on the recovered version with
     its flat index mirror built, as a warm daemon has it *)
  let snap = Directory.snapshot (Store.directory st) in
  Index.materialize (Directory.Snapshot.Private.index snap);
  trace_reads snap (Array.sub plan.reads 0 traced_reads);
  List.iter (fun (_, c) -> Printf.printf "layers %s %.17g\n" c (layer_ms c)) Inputs.classes;
  top_heap "reads";
  (* the replication source, before the traced writes extend the log *)
  let records =
    match timed "store.records_from" (fun () -> Store.records_from st ~lsn:0) with
    | `Records r -> r
    | `Too_old -> fail "records_from 0: too old"
  in
  emit_span ~unit_:"s" "store.records_from";
  trace_writes st ~counted ~root:(Filename.concat work "wal") ~store_root:primary
    (List.init traced_txns (fun k ->
         Inputs.write_text (Inputs.write_txn ~tag ~parents:plan.parents k)));
  top_heap "writes";
  Store.close st;
  Gc.full_major ();
  let rs, _ =
    Store.open_ (Io.real ~root:replica ())
    |> Result.map_error Store.error_to_string |> ok "replica open"
  in
  (* every logged record shipped and applied: the replica converges to
     the primary's lsn and instance *)
  trace_replica rs records;
  if Store.lsn rs <> plan.lsn || not (Instance.equal parts (Directory.instance (Store.directory rs)))
  then fail "replica at lsn %d does not converge to the primary at lsn %d" (Store.lsn rs) plan.lsn;
  Store.close rs;
  top_heap "replica";
  List.iter
    (fun (name, value, unit_) -> Printf.printf "metric %s %.17g %s\n" name value unit_)
    (List.rev !out)
