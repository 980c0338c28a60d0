(* ldapschema — command-line front end for the bounding-schema library.

   Subcommands:
     validate    check an LDIF directory against a schema spec
     consistent  decide schema consistency; optionally emit a witness
     query       evaluate a hierarchical selection query over a directory
     update      apply an LDIF change file under incremental legality
     load        stream-bulk-load LDIF entries into a durable store
     fmt         parse a schema spec and print its canonical form
     generate    emit a benchmark workload as LDIF
     fuzz        differential fuzzing over the oracle registry
     log         describe a durable store's checkpoint and log tail
     checkpoint  compact a durable store
     serve       run the directory server over a durable store
     client      send one request to a running server
     traffic     drive mixed read/write load at a running server

   validate/query/update also accept [--store DIR] to run against a
   durable session (write-ahead log + checkpoint) instead of flat
   files. *)

open Bounds_model
open Bounds_core
module Store = Bounds_store.Store
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let load_schema path =
  match Spec_parser.parse (read_file path) with
  | Ok s -> Ok s
  | Error e ->
      Error (Printf.sprintf "%s: %s" path (Spec_parser.error_to_string e))

let load_data ~typing path =
  match Bounds_codec.Ldif.parse ~typing (read_file path) with
  | Ok inst -> Ok inst
  | Error e ->
      Error (Printf.sprintf "%s: %s" path (Bounds_codec.Ldif.error_to_string e))

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 2

(* --- arguments --------------------------------------------------------- *)

let schema_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "schema" ] ~docv:"SPEC" ~doc:"Bounding-schema specification file.")

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"LDIF" ~doc:"Directory instance in LDIF.")

(* optional variants for subcommands where --store can stand in *)
let schema_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "schema" ] ~docv:"SPEC" ~doc:"Bounding-schema specification file.")

let data_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"LDIF" ~doc:"Directory instance in LDIF.")

(* --- durable stores ----------------------------------------------------- *)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Durable session directory (write-ahead log + checkpoint) to use \
           instead of flat $(b,-s)/$(b,-d) files.")

(* validate/query/update take -s/-d as optional and enforce them only in
   flat-file mode, where a store does not provide them *)
let required_arg flag = function
  | Some v -> v
  | None ->
      or_die (Error (Printf.sprintf "%s is required without --store" flag))

let store_io dir =
  if not (Sys.file_exists dir) then
    or_die (Error (Printf.sprintf "%s: no such store" dir));
  Bounds_store.Io.real ~root:dir ()

(* recover an existing store, announcing how far recovery got on [ppf]
   (stderr for subcommands whose stdout is data) *)
let open_store ?(ppf = Format.std_formatter) ?auto_checkpoint dir =
  let io = store_io dir in
  match Store.open_ ?auto_checkpoint io with
  | Ok (st, report) ->
      Format.fprintf ppf "store: %a@." Store.pp_report report;
      st
  | Error e ->
      or_die (Error (Printf.sprintf "%s: %s" dir (Store.error_to_string e)))

(* recover the store in [dir], run [f] on it, close it *)
let with_store ?ppf dir f =
  let st = open_store ?ppf dir in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

(* --- validate ----------------------------------------------------------- *)

(* one plan per Figure-4 obligation query, with est/actual columns *)
let explain_obligations snap (schema : Schema.t) =
  List.iter
    (fun (_, q, _) ->
      let plan, _ = Directory.Snapshot.explain snap q in
      Format.printf "%a@." Profile.pp_plan_explain (Profile.explain_plan plan))
    (Translate.all schema.Schema.structure)

let report_viols what entries = function
  | [] ->
      Printf.printf "%s: legal (%d entries)\n" what entries;
      0
  | viols ->
      Printf.printf "%s: ILLEGAL — %d violation(s)\n" what (List.length viols);
      List.iter (fun v -> Printf.printf "  - %s\n" (Violation.to_string v)) viols;
      1

let validate schema_path data_path naive no_extensions explain store =
  let check what schema snap =
    let extensions = not no_extensions in
    let inst = Directory.Snapshot.instance snap in
    if explain then explain_obligations snap schema;
    report_viols what (Instance.size inst)
      (if naive then Naive_legality.check ~extensions schema inst
       else Directory.Snapshot.validate ~extensions schema snap)
  in
  match store with
  | Some dir ->
      (* the store's admission scan already vouches for the instance;
         this re-runs the full check on the recovered state *)
      with_store dir (fun st ->
          check dir (Store.schema st) (Directory.snapshot (Store.directory st)))
  | None ->
      let schema = or_die (load_schema (required_arg "-s/--schema" schema_path)) in
      let data_path = required_arg "-d/--data" data_path in
      let inst = or_die (load_data ~typing:schema.Schema.typing data_path) in
      check data_path schema (Directory.Snapshot.of_instance inst)

let validate_cmd =
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ] ~doc:"Use the quadratic pairwise checker (for comparison).")
  in
  let no_ext =
    Arg.(
      value & flag
      & info [ "no-extensions" ]
          ~doc:"Skip the single-valued and key checks (Section 6.1 extensions).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the physical plan of every Figure-4 obligation query, \
             with estimated vs actual cardinalities.")
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check that an LDIF directory is legal w.r.t. a schema.")
    Term.(
      const validate $ schema_opt_arg $ data_opt_arg $ naive $ no_ext $ explain
      $ store_arg)

(* --- consistent ---------------------------------------------------------- *)

let consistent schema_path witness_path show_proof =
  let schema = or_die (load_schema schema_path) in
  match Consistency.decide schema with
  | Consistency.Consistent { witness; passes; derived } ->
      Printf.printf "consistent (saturation: %d passes, %d elements)\n" passes derived;
      (match witness_path with
      | Some path ->
          write_file path (Bounds_codec.Ldif.to_string witness);
          Printf.printf "witness (%d entries) written to %s\n" (Instance.size witness)
            path
      | None -> ());
      0
  | Consistency.Inconsistent { proof; passes; derived } ->
      Printf.printf "INCONSISTENT (saturation: %d passes, %d elements)\n" passes
        derived;
      if show_proof then Format.printf "%a@." Inference.pp_proof proof;
      1
  | Consistency.Unresolved { reason; _ } ->
      Printf.printf "unresolved: no contradiction derivable, but %s\n" reason;
      3

let consistent_cmd =
  let witness =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "witness" ] ~docv:"LDIF"
          ~doc:"Write a legal witness instance to this file.")
  in
  let proof =
    Arg.(value & flag & info [ "proof" ] ~doc:"Print the inconsistency derivation.")
  in
  Cmd.v
    (Cmd.info "consistent"
       ~doc:"Decide whether a bounding-schema admits any legal instance.")
    Term.(const consistent $ schema_arg $ witness $ proof)

(* --- query --------------------------------------------------------------- *)

let print_ids inst ids =
  let o = Outbuf.create 4096 in
  Outbuf.add_string o (Printf.sprintf "%d entries" (List.length ids));
  ignore (Instance.add_dns inst o ids);
  Outbuf.add_char o '\n';
  output stdout o.bytes 0 o.len

let query schema_path data_path expr explain store =
  let q =
    match Bounds_query.Query_parser.parse expr with
    | Ok q -> q
    | Error e -> or_die (Error ("query: " ^ Parse_error.to_string e))
  in
  let answer snap =
    let ids =
      if explain then begin
        let plan, ids = Directory.Snapshot.explain snap q in
        Format.printf "%a@." Profile.pp_plan_explain (Profile.explain_plan plan);
        ids
      end
      else Directory.Snapshot.query_ids snap q
    in
    print_ids (Directory.Snapshot.instance snap) ids;
    0
  in
  match store with
  | Some dir ->
      (* recovery notes go to stderr: stdout is the result set *)
      with_store ~ppf:Format.err_formatter dir (fun st ->
          answer (Directory.snapshot (Store.directory st)))
  | None ->
      let typing =
        match schema_path with
        | Some p -> (or_die (load_schema p)).Schema.typing
        | None -> Typing.default
      in
      answer
        (Directory.Snapshot.of_instance
           (or_die (load_data ~typing (required_arg "-d/--data" data_path))))

let query_cmd =
  let schema_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "schema" ] ~docv:"SPEC" ~doc:"Schema spec (for attribute types).")
  in
  let expr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Hierarchical selection query, e.g. '(minus (objectClass=orgGroup) (chi \
             d (objectClass=orgGroup) (objectClass=person)))', or a bare LDAP \
             filter.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Evaluate through the cost-based planner and print the chosen \
             physical plan with estimated vs actual cardinalities.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a hierarchical selection query over an LDIF file.")
    Term.(
      const query $ schema_opt $ data_opt_arg $ expr $ explain $ store_arg)

(* --- search ---------------------------------------------------------------- *)

let search schema_path data_path base_dn scope_str filter_str optimize =
  let schema =
    match schema_path with Some p -> Some (or_die (load_schema p)) | None -> None
  in
  let typing =
    match schema with Some s -> s.Schema.typing | None -> Typing.default
  in
  let inst = or_die (load_data ~typing data_path) in
  let scope =
    match Bounds_query.Search.scope_of_string scope_str with
    | Ok s -> s
    | Error m -> or_die (Error m)
  in
  let filter =
    match Bounds_query.Filter_parser.parse filter_str with
    | Ok f -> f
    | Error e -> or_die (Error ("filter: " ^ Parse_error.to_string e))
  in
  let base =
    match base_dn with
    | None -> None
    | Some dn -> (
        match Instance.resolve_dn inst dn with
        | Some id -> Some id
        | None -> or_die (Error (Printf.sprintf "base %S not found" dn)))
  in
  let filter =
    match (optimize, schema) with
    | true, Some s -> (
        let inf = Inference.saturate s in
        match Optimize.simplify inf (Bounds_query.Query.Select filter) with
        | Bounds_query.Query.Select f -> f
        | _ -> filter)
    | true, None -> or_die (Error "--optimize needs --schema")
    | false, _ -> filter
  in
  let snap = Directory.Snapshot.of_instance inst in
  let ids = Directory.Snapshot.search snap ~base scope filter in
  print_ids inst ids;
  0

let search_cmd =
  let schema_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "schema" ] ~docv:"SPEC" ~doc:"Schema spec (types; enables --optimize).")
  in
  let base =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "base" ] ~docv:"DN" ~doc:"Base entry (whole forest if omitted).")
  in
  let scope =
    Arg.(
      value & opt string "sub"
      & info [ "scope" ] ~docv:"SCOPE" ~doc:"base, one, or sub (default).")
  in
  let filter =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILTER" ~doc:"RFC-2254-style filter.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"Simplify the filter against the schema before evaluating.")
  in
  Cmd.v
    (Cmd.info "search" ~doc:"LDAP-style scoped search over an LDIF file.")
    Term.(
      const search $ schema_opt $ data_arg $ base $ scope $ filter $ optimize)

(* --- update ---------------------------------------------------------------- *)

(* LDIF change records (dn: + changetype add/delete) now parse in the
   codec library — shared with the network server's write path. *)
let parse_changes = Bounds_codec.Ldif.parse_changes

let write_out out_path dir =
  match out_path with
  | Some path ->
      write_file path (Bounds_codec.Ldif.to_string (Directory.instance dir));
      Printf.printf "updated directory written to %s\n" path
  | None -> ()

let update schema_path data_path ops_path out_path stats store every =
  match store with
  | Some dir ->
      let io = Bounds_store.Io.real ~root:dir () in
      let st =
        if Store.exists io then
          open_store ~auto_checkpoint:every dir
        else begin
          (* first update creates the store: -s seeds the schema, -d
             (optional) the initial instance *)
          let schema =
            or_die (load_schema (required_arg "-s/--schema" schema_path))
          in
          let inst =
            match data_path with
            | Some p -> or_die (load_data ~typing:schema.Schema.typing p)
            | None -> Instance.empty
          in
          match Store.init ~auto_checkpoint:every io schema inst with
          | Ok st ->
              Printf.printf "store: initialized %s (%d entries)\n" dir
                (Instance.size inst);
              st
          | Error e ->
              or_die
                (Error (Printf.sprintf "%s: %s" dir (Store.error_to_string e)))
        end
      in
      Fun.protect
        ~finally:(fun () -> Store.close st)
        (fun () ->
          let typing = (Store.schema st).Schema.typing in
          let inst = Directory.instance (Store.directory st) in
          let ops =
            or_die (parse_changes ~typing inst (read_file ops_path))
          in
          match Store.apply st ops with
          | Admission.Accepted { lsn; _ } ->
              let d = Store.directory st in
              Printf.printf
                "transaction accepted: %d operation(s), %d entries now\n"
                (List.length ops) (Directory.size d);
              (* an empty transaction takes no lsn *)
              if lsn = None then print_endline "nothing logged"
              else
                Printf.printf "logged at lsn %d (%d record(s), %d bytes)\n"
                  (Store.lsn st) (Store.wal_records st) (Store.wal_bytes st);
              if stats then
                Format.printf "%a@." Directory.pp_stats (Directory.stats d);
              write_out out_path d;
              0
          | Admission.Rejected { reason; _ } ->
              Format.printf "transaction REJECTED: %a@." Monitor.pp_rejection
                reason;
              1)
  | None ->
      let schema = or_die (load_schema (required_arg "-s/--schema" schema_path)) in
      let inst =
        or_die
          (load_data ~typing:schema.Schema.typing
             (required_arg "-d/--data" data_path))
      in
      let ops =
        or_die (parse_changes ~typing:schema.Schema.typing inst (read_file ops_path))
      in
      let dir =
        match Directory.open_ schema inst with
        | Ok d -> d
        | Error viols ->
            prerr_endline "error: the starting directory is already illegal:";
            List.iter (fun v -> prerr_endline ("  - " ^ Violation.to_string v)) viols;
            exit 2
      in
      match Directory.apply dir ops with
      | dir, Admission.Accepted _ ->
          Printf.printf "transaction accepted: %d operation(s), %d entries now\n"
            (List.length ops) (Directory.size dir);
          if stats then
            Format.printf "%a@." Directory.pp_stats (Directory.stats dir);
          write_out out_path dir;
          0
      | _, Admission.Rejected { reason; _ } ->
          Format.printf "transaction REJECTED: %a@." Monitor.pp_rejection
            reason;
          1

let update_cmd =
  let ops =
    Arg.(
      required
      & opt (some file) None
      & info [ "o"; "ops" ] ~docv:"CHANGES"
          ~doc:
            "LDIF change records: plain records (or changetype: add) insert; \
             changetype: delete removes.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"LDIF" ~doc:"Write the updated directory here.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print session statistics after the transaction (entries, memo \
             hit/miss and migration counts).")
  in
  let every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "With --store: checkpoint automatically once $(docv) records \
             have accumulated in the log since the last checkpoint (0 = \
             never).")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply an update transaction under incremental legality checking.")
    Term.(
      const update $ schema_opt_arg $ data_opt_arg $ ops $ out $ stats
      $ store_arg $ every)

(* --- load (streaming bulk ingest) --------------------------------------- *)

let load_bulk ldif_path trust dir =
  with_store dir (fun st ->
      let typing = (Store.schema st).Schema.typing in
      let text = read_file ldif_path in
      (* fresh ids for the streamed records; parents resolve among
         them (a dump's forest shape), new roots stay roots *)
      let base = Instance.fresh_id (Directory.instance (Store.directory st)) in
      let outcome =
        Store.load ~trust st (fun add ->
            match
              Bounds_codec.Ldif.fold_entries ~typing
                ~id_of:(fun k -> base + k)
                (fun ~parent e () -> add ~parent e)
                () text
            with
            | Ok () -> Ok ()
            | Error e ->
                Error
                  (Printf.sprintf "%s: %s" ldif_path
                     (Bounds_codec.Ldif.error_to_string e)))
      in
      match outcome with
      | Ok n ->
          Printf.printf "loaded %d entries (%s); %d entries now\n" n
            (if trust then "trusted, admission skipped"
             else "one admission check on the final instance")
            (Directory.size (Store.directory st));
          Printf.printf "checkpointed at lsn %d; log reset\n" (Store.lsn st);
          0
      | Error (Store.Illegal vs) ->
          Printf.printf
            "load REJECTED — final instance is illegal, store unchanged:\n";
          List.iter
            (fun v -> Printf.printf "  - %s\n" (Violation.to_string v))
            vs;
          1
      | Error e ->
          or_die (Error (Printf.sprintf "%s: %s" dir (Store.error_to_string e))))

let load_cmd =
  let ldif =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LDIF" ~doc:"Entries to load (parents before children).")
  in
  let store =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR" ~doc:"Durable store to load into.")
  in
  let trust =
    Arg.(
      value & flag
      & info [ "trust" ]
          ~doc:
            "Skip the final admission check — for dumps known legal \
             (checkpoints of this store, exports of a validated \
             directory).  Loading an illegal dump with $(b,--trust) \
             voids the store's legality invariant.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Bulk-load LDIF entries into a durable store: entries stream \
          through the batched trusted ingest path (no per-entry admission \
          or log records), then the final instance passes one admission \
          check (unless $(b,--trust)) and is committed as an atomic \
          checkpoint.")
    Term.(const load_bulk $ ldif $ trust $ store)

(* --- repair ------------------------------------------------------------------ *)

let repair schema_path data_path destructive out_path =
  let schema = or_die (load_schema schema_path) in
  let inst = or_die (load_data ~typing:schema.Schema.typing data_path) in
  let outcome = Repair.fix ~destructive schema inst in
  if outcome.Repair.actions = [] && outcome.Repair.remaining = [] then begin
    Printf.printf "%s: already legal, nothing to repair\n" data_path;
    0
  end
  else begin
    List.iter
      (fun act -> Format.printf "  %a@." Repair.pp_action act)
      outcome.Repair.actions;
    (match out_path with
    | Some path ->
        write_file path (Bounds_codec.Ldif.to_string outcome.Repair.instance);
        Printf.printf "repaired directory (%d entries) written to %s\n"
          (Instance.size outcome.Repair.instance)
          path
    | None -> ());
    match outcome.Repair.remaining with
    | [] ->
        Printf.printf "fully repaired: %d action(s)\n"
          (List.length outcome.Repair.actions);
        0
    | remaining ->
        Printf.printf "%d violation(s) remain%s:\n" (List.length remaining)
          (if destructive then "" else " (retry with --destructive?)");
        List.iter (fun v -> Printf.printf "  - %s\n" (Violation.to_string v)) remaining;
        1
  end

let repair_cmd =
  let destructive =
    Arg.(
      value & flag
      & info [ "destructive" ]
          ~doc:
            "Also delete offending subtrees when nothing gentler fixes a \
             violation.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"LDIF" ~doc:"Write the repaired directory here.")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Repair an illegal directory with targeted edits.")
    Term.(const repair $ schema_arg $ data_arg $ destructive $ out)

(* --- fmt --------------------------------------------------------------------- *)

let fmt schema_path =
  let schema = or_die (load_schema schema_path) in
  print_string (Spec_printer.to_string schema);
  0

let fmt_cmd =
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse a schema spec and print its canonical form.")
    Term.(const fmt $ schema_arg)

(* --- tree-check (Section 6.3) --------------------------------------------------- *)

let tree_check schema_path data_path =
  let sschema =
    match Bounds_semi.Sschema.parse (read_file schema_path) with
    | Ok s -> s
    | Error m -> or_die (Error (Printf.sprintf "%s: %s" schema_path m))
  in
  match data_path with
  | Some path -> (
      let forest =
        match Bounds_semi.Ltree.parse_forest (read_file path) with
        | Ok f -> f
        | Error m -> or_die (Error (Printf.sprintf "%s: %s" path m))
      in
      match Bounds_semi.Sschema.check sschema forest with
      | [] ->
          Printf.printf "%s: legal (%d nodes)\n" path
            (List.fold_left (fun n t -> n + Bounds_semi.Ltree.size t) 0 forest);
          0
      | viols ->
          Printf.printf "%s: ILLEGAL — %d violation(s)\n" path (List.length viols);
          List.iter (fun v -> Printf.printf "  - %s\n" v) viols;
          1)
  | None -> (
      match Bounds_semi.Sschema.witness sschema with
      | Ok forest ->
          Printf.printf "consistent; a minimal legal document:\n";
          List.iter
            (fun t -> Printf.printf "  %s\n" (Bounds_semi.Ltree.to_string t))
            forest;
          0
      | Error m ->
          Printf.printf "%s\n" m;
          1)

let tree_check_cmd =
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"TREES"
          ~doc:
            "Forest of s-expression trees, e.g. '(library (book (title)))'.  \
             Without it, the schema's consistency is decided instead.")
  in
  Cmd.v
    (Cmd.info "tree-check"
       ~doc:
         "Bounding-schemas for semistructured data (Section 6.3): validate a \
          labelled forest, or decide a tree-schema's consistency.")
    Term.(const tree_check $ schema_arg $ data)

(* --- profile ------------------------------------------------------------------ *)

let profile schema_path data_path =
  let schema = or_die (load_schema schema_path) in
  let inst = or_die (load_data ~typing:schema.Schema.typing data_path) in
  Format.printf "%a" Profile.pp (Profile.compute schema inst);
  0

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Schema-aware statistics: class populations, optional-attribute fill \
          rates, auxiliary-class adoption, forest shape.")
    Term.(const profile $ schema_arg $ data_arg)

(* --- generate ----------------------------------------------------------------- *)

let generate workload seed units persons out emit_schema =
  let schema, inst =
    match workload with
    | "white-pages" ->
        ( Bounds_workload.White_pages.schema,
          Bounds_workload.White_pages.generate ~seed ~units ~persons_per_unit:persons
            () )
    | "den" ->
        ( Bounds_workload.Den.schema,
          Bounds_workload.Den.generate ~seed ~sites:(max 1 (units / 10))
            ~devices_per_site:4 ~interfaces_per_device:2 ~policies:persons () )
    | other -> or_die (Error (Printf.sprintf "unknown workload %S" other))
  in
  (match emit_schema with
  | Some path -> write_file path (Spec_printer.to_string schema)
  | None -> ());
  let ldif = Bounds_codec.Ldif.to_string inst in
  (match out with Some path -> write_file path ldif | None -> print_string ldif);
  Printf.eprintf "generated %d entries\n" (Instance.size inst);
  0

let generate_cmd =
  let workload =
    Arg.(
      value
      & opt string "white-pages"
      & info [ "workload" ] ~docv:"NAME" ~doc:"white-pages or den.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let units =
    Arg.(value & opt int 20 & info [ "units" ] ~docv:"N" ~doc:"Organizational units.")
  in
  let persons =
    Arg.(
      value & opt int 5
      & info [ "persons" ] ~docv:"N" ~doc:"Persons per unit (policies for den).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"LDIF" ~doc:"Output file (stdout by default).")
  in
  let emit_schema =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-schema" ] ~docv:"SPEC" ~doc:"Also write the matching schema spec.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic legal directory as LDIF.")
    Term.(const generate $ workload $ seed $ units $ persons $ out $ emit_schema)

(* --- fuzz --------------------------------------------------------------------- *)

let fuzz list oracle_names seed budget corpus max_failures =
  let open Bounds_diff in
  if list then begin
    List.iter
      (fun (o : Oracle.t) -> Printf.printf "%-24s %s\n" o.name o.doc)
      Oracle.all;
    0
  end
  else begin
    let oracles = match oracle_names with [] -> None | l -> Some l in
    let log line = Printf.eprintf "%s\n%!" line in
    let reports =
      or_die (Fuzz.run ?oracles ~max_failures ~log ~budget ~seed ())
    in
    (match corpus with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    List.iter
      (fun (r : Fuzz.report) ->
        if r.failures = [] then
          Printf.printf "%-24s %6d cases  ok\n" r.oracle r.budget
        else begin
          Printf.printf "%-24s %6d cases  %d counterexample(s)\n" r.oracle
            r.budget
            (List.length r.failures);
          List.iter
            (fun (f : Fuzz.failure) ->
              Printf.printf "  %s\n" f.message;
              Format.printf "    @[<v>%a@]@." Case.pp f.case;
              match corpus with
              | Some dir ->
                  Printf.printf "    saved %s\n" (Fuzz.save_case ~dir f.case)
              | None -> ())
            r.failures
        end)
      reports;
    if Fuzz.total_failures reports = 0 then begin
      Printf.printf "all oracles agree\n";
      0
    end
    else 1
  end

let fuzz_cmd =
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered oracles and exit.")
  in
  let oracle =
    Arg.(
      value
      & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Fuzz only this oracle (repeatable; default: all).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let budget =
    Arg.(
      value & opt int 500
      & info [ "budget" ] ~docv:"N" ~doc:"Cases to generate per oracle.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Save shrunk counterexamples to $(docv) as regression cases.")
  in
  let max_failures =
    Arg.(
      value & opt int 3
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop shrinking after $(docv) distinct counterexamples per oracle.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: run pairs of independently-implemented \
          engines (codec round-trips, indexed vs naive evaluation, \
          incremental vs full legality, recovered store vs in-memory twin) \
          on random adversarial inputs, and shrink any disagreement to a minimal \
          counterexample.")
    Term.(
      const fuzz $ list $ oracle $ seed $ budget $ corpus $ max_failures)

(* --- log / checkpoint (durable stores) ---------------------------------- *)

let store_pos_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory.")

(* Describe the store as it sits on disk — checkpoint header, every
   readable log record, and where (if anywhere) the tail is damaged.
   Read-only: unlike open_/recovery it neither replays nor truncates. *)
let log_ dir =
  let io = store_io dir in
  if not (Store.exists io) then
    or_die (Error (Printf.sprintf "%s: not a store (missing %s)" dir Store.schema_file));
  let ckpt_ok =
    match Bounds_store.Checkpoint.read_meta io Store.checkpoint_file with
    | Ok m ->
        Printf.printf "checkpoint: lsn %d, %d entries\n" m.Bounds_store.Checkpoint.lsn
          m.Bounds_store.Checkpoint.entries;
        Printf.printf "stats: applied %d rejected %d queries %d\n"
          m.Bounds_store.Checkpoint.applied m.Bounds_store.Checkpoint.rejected
          m.Bounds_store.Checkpoint.queries;
        true
    | Error e ->
        Printf.printf "checkpoint: unreadable (%s)\n" e;
        false
  in
  let scan = Bounds_store.Wal.scan io Store.wal_file in
  let marker (r : Bounds_store.Wal.record) = r.lsn = 0 && r.ops = [] in
  Printf.printf "log: %d record(s), %d bytes\n"
    (List.length (List.filter (fun r -> not (marker r)) scan.Bounds_store.Wal.records))
    scan.Bounds_store.Wal.end_offset;
  List.iter
    (fun (r : Bounds_store.Wal.record) ->
      if marker r then Printf.printf "  segment marker at byte %d\n" r.offset
      else
        Printf.printf "  lsn %d: %d op(s) at byte %d\n" r.lsn (List.length r.ops)
          r.offset)
    scan.Bounds_store.Wal.records;
  match scan.Bounds_store.Wal.truncated with
  | None ->
      Printf.printf "tail: clean\n";
      if ckpt_ok then 0 else 1
  | Some t ->
      Printf.printf "tail: damaged at byte %d (%s)\n" t.Bounds_store.Wal.offset
        t.Bounds_store.Wal.reason;
      1

let log_cmd =
  Cmd.v
    (Cmd.info "log"
       ~doc:
         "Describe a durable store: checkpoint header, log records, tail \
          health.  Exits 1 if the checkpoint is unreadable or the tail is \
          damaged (recovery would truncate it).")
    Term.(const log_ $ store_pos_arg)

let checkpoint_verb dir full =
  with_store dir (fun st ->
      Store.checkpoint ~full st;
      if Store.segments st = 0 then
        Printf.printf "checkpointed at lsn %d (%d entries); log reset\n"
          (Store.lsn st)
          (Directory.size (Store.directory st))
      else
        Printf.printf "segment marked at lsn %d (%d segment(s), log %d bytes)\n"
          (Store.lsn st) (Store.segments st) (Store.wal_bytes st);
      0)

let full_arg =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:
          "Collapse: rewrite the whole snapshot and reset the log instead \
           of marking the end of a segment in it.")

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Compact a durable store: recover it and mark the end of a segment \
          in the write-ahead log (or, with $(b,--full) or past the segment \
          threshold, rewrite the full snapshot and reset the log).")
    Term.(const checkpoint_verb $ store_pos_arg $ full_arg)

(* Recover the store and report the live session's counters, including
   the hash-cons pool stats the recovery populated — at directory scale
   the interesting figure is how many duplicate strings the load would
   otherwise have held. *)
let stats_verb dir =
  with_store dir (fun st ->
      Format.printf "%a@." Directory.pp_stats
        (Directory.stats (Store.directory st));
      0)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Recover a durable store and print session counters plus intern \
          pool statistics (distinct strings, hash-cons hits, heap bytes \
          saved).")
    Term.(const stats_verb $ store_pos_arg)

(* --- serve / client / traffic (network) --------------------------------- *)

module Server = Bounds_net.Server
module Client = Bounds_net.Client
module Proto = Bounds_net.Proto
module Replica = Bounds_net.Replica

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_opt_arg ~doc =
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)

let port_req_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")

(* SIGINT and SIGTERM stop a daemon even while every thread sits in a
   system call, where an OCaml signal handler would never run: the two
   signals are blocked before [start] creates any thread (threads
   inherit the mask), and one thread takes them with
   [Thread.wait_signal]. *)
let stop_on_signals start stop =
  let signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  let daemon = start () in
  ignore
    (Thread.create
       (fun () ->
         ignore (Thread.wait_signal signals);
         stop daemon)
       ());
  daemon

let serve dir host port batch_max max_clients replicate =
  with_store dir (fun st ->
      let srv =
        stop_on_signals
          (fun () ->
            Server.start ~host ~port ~batch_max ~max_clients ~replicate st)
          Server.stop
      in
      Printf.printf "listening on %s:%d (store %s, %d entries)\n%!" host
        (Server.port srv) dir
        (Directory.size (Store.directory st));
      Server.wait srv;
      print_endline (Server.stats_text (Server.stats srv));
      0)

let serve_cmd =
  let batch_max =
    Arg.(
      value & opt int 64
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Most write transactions per group commit (default 64).")
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Most concurrent connections (default 64).")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Accept replica subscriptions and ship every acknowledged WAL \
             record (plus checkpoint markers) to them as it commits.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the directory server over a durable store: concurrent \
          snapshot-isolated readers, single-writer group commit (one shared \
          fsync per batch).  Stops on SIGINT/SIGTERM or a client's shutdown \
          request.")
    Term.(
      const serve $ store_pos_arg $ host_arg
      $ port_opt_arg ~doc:"Port to listen on (0 = ephemeral, printed at start)."
      $ batch_max $ max_clients $ replicate)

let replica_verb dir from host port max_clients =
  let primary_host, primary_port =
    match String.rindex_opt from ':' with
    | None ->
        or_die (Error (Printf.sprintf "--from %S: expected HOST:PORT" from))
    | Some i -> (
        let h = String.sub from 0 i in
        let p = String.sub from (i + 1) (String.length from - i - 1) in
        match int_of_string_opt p with
        | Some p when p > 0 -> ((if h = "" then "127.0.0.1" else h), p)
        | _ ->
            or_die
              (Error (Printf.sprintf "--from %S: bad port %S" from p)))
  in
  (* A fresh replica bootstraps into an empty directory — create it
     rather than demanding an existing store like the other verbs. *)
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    or_die (Error (Printf.sprintf "%s: not a directory" dir));
  let io = Bounds_store.Io.real ~root:dir () in
  let rep =
    stop_on_signals
      (fun () ->
        Replica.start ~host ~port ~max_clients ~primary_host ~primary_port io)
      Replica.stop
  in
  Printf.printf "replica listening on %s:%d (store %s, primary %s:%d)\n%!"
    host (Replica.port rep) dir primary_host primary_port;
  Replica.wait rep;
  print_endline (Replica.stats_text (Replica.stats rep));
  0

let replica_cmd =
  let from =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"HOST:PORT"
          ~doc:"Primary to subscribe to (its serve $(b,--replicate) feed).")
  in
  let store =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Replica store directory; created and bootstrapped from a \
             shipped snapshot if absent, recovered and served immediately \
             if present.")
  in
  let max_clients =
    Arg.(
      value & opt int 16
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Most concurrent read connections (default 16).")
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Run a read-only replica fed by WAL shipment from a primary \
          started with $(b,--replicate): bootstraps from a shipped \
          snapshot, applies the stream through trusted replay, serves \
          lock-free reads from its own snapshots, and reconnects with \
          exponential backoff resuming from its durable lsn.")
    Term.(
      const replica_verb $ store $ from $ host_arg
      $ port_opt_arg
          ~doc:"Read-side port to listen on (0 = ephemeral, printed at start)."
      $ max_clients)

let client_verb host port verb operand base scope =
  let req =
    match verb with
    | "ping" -> Proto.Ping
    | "stats" -> Proto.Stats
    | "checkpoint" -> Proto.Checkpoint
    | "shutdown" -> Proto.Shutdown
    | "query" -> (
        match operand with
        | Some e -> Proto.Query e
        | None -> or_die (Error "query needs an expression argument"))
    | "search" -> (
        match operand with
        | Some f -> Proto.Search { base; scope; filter = f }
        | None -> or_die (Error "search needs a filter argument"))
    | "apply" -> (
        match operand with
        | Some path ->
            let text =
              if path = "-" then In_channel.input_all stdin
              else read_file path
            in
            Proto.Apply text
        | None -> or_die (Error "apply needs an LDIF change file (or - for stdin)"))
    | v -> or_die (Error (Printf.sprintf "unknown request verb %S" v))
  in
  match Client.connect ~host ~port ~retries:20 () with
  | Error e -> or_die (Error e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c req with
          | Ok (Proto.Reply body) ->
              if body <> "" then print_endline body;
              0
          | Ok (Proto.Failed msg) ->
              prerr_endline ("server: " ^ msg);
              1
          | Error e -> or_die (Error e))

let client_cmd =
  let verb =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:"ping, query, search, apply, stats, checkpoint, or shutdown.")
  in
  let operand =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:
            "Query expression, search filter, or LDIF change file ($(b,-) \
             for stdin), depending on the verb.")
  in
  let base =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "base" ] ~docv:"DN"
          ~doc:"Search base (whole forest if omitted).")
  in
  let scope =
    Arg.(
      value & opt string "sub"
      & info [ "scope" ] ~docv:"SCOPE" ~doc:"base, one, or sub (default).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running directory server and print the reply.")
    Term.(
      const client_verb $ host_arg $ port_req_arg $ verb $ operand $ base
      $ scope)

let traffic_verb host port clients requests write_ratio seed tag =
  match
    Bounds_workload.Traffic.run ~host ~port ~clients ~requests ~write_ratio
      ~seed ~tag ()
  with
  | Error e -> or_die (Error e)
  | Ok report ->
      print_endline (Bounds_workload.Traffic.report_text report);
      if
        report.Bounds_workload.Traffic.requests > 0
        && report.Bounds_workload.Traffic.failed = 0
      then 0
      else 1

let traffic_cmd =
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(
      value & opt int 100
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let write_ratio =
    Arg.(
      value & opt float 0.2
      & info [ "write-ratio" ] ~docv:"R"
          ~doc:"Fraction of requests that are write transactions.")
  in
  let seed =
    Arg.(value & opt int 17 & info [ "seed" ] ~docv:"N" ~doc:"Stream seed.")
  in
  let tag =
    Arg.(
      value & opt string "t"
      & info [ "tag" ] ~docv:"TAG"
          ~doc:
            "Uid prefix for generated writes (vary it between runs against \
             a persistent store: uid is a key).")
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Drive mixed read/write traffic at a running directory server and \
          report throughput and latency.  Exits 1 if any request failed \
          (a transport error or a $(b,Failed) reply, rejected writes \
          included) or none succeeded.")
    Term.(
      const traffic_verb $ host_arg $ port_req_arg $ clients $ requests
      $ write_ratio $ seed $ tag)

let main =
  Cmd.group
    (Cmd.info "ldapschema" ~version:"1.0.0"
       ~doc:"Bounding-schemas for LDAP directories (EDBT 2000), as a tool.")
    [
      validate_cmd;
      consistent_cmd;
      query_cmd;
      search_cmd;
      update_cmd;
      load_cmd;
      repair_cmd;
      profile_cmd;
      tree_check_cmd;
      fmt_cmd;
      generate_cmd;
      fuzz_cmd;
      log_cmd;
      checkpoint_cmd;
      stats_cmd;
      serve_cmd;
      replica_cmd;
      client_cmd;
      traffic_cmd;
    ]

let () = exit (Cmd.eval' main)
