(* Updates and incremental legality (Section 4): operation discipline,
   transaction decomposition (Theorem 4.1), the Figure-5 testability table
   and Δ-checks (Theorem 4.2), and the Monitor. *)

open Bounds_model
open Bounds_core
module WP = Bounds_workload.White_pages
module SS = Structure_schema

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let a = Attr.of_string
let c = Oclass.of_string
let wp_schema = WP.schema
let wp = WP.instance

let person ?(id = 100) ?(uid = "u100") ?(classes = [ "person"; "top" ]) () =
  Entry.make ~id
    ~classes:(Oclass.set_of_list classes)
    [ (a "name", Value.String "n"); (a "uid", Value.String uid) ]

let unit_entry ?(id = 100) ?(ou = "newunit") () =
  Entry.make ~id
    ~classes:(Oclass.set_of_list [ "orgunit"; "orggroup"; "top" ])
    [ (a "ou", Value.String ou) ]

(* --- Update ops ----------------------------------------------------------- *)

let test_apply_op () =
  let inst = Result.get_ok (Update.apply_op wp (Update.Insert { parent = Some 3; entry = person () })) in
  check_int "inserted" 7 (Instance.size inst);
  check "delete leaf ok" true
    (Result.is_ok (Update.apply_op inst (Update.Delete 100)));
  check "delete non-leaf fails" true
    (Result.is_error (Update.apply_op inst (Update.Delete 1)));
  check "insert duplicate id fails" true
    (Result.is_error
       (Update.apply_op inst (Update.Insert { parent = None; entry = person ~id:3 () })));
  check "insert under missing parent fails" true
    (Result.is_error
       (Update.apply_op inst (Update.Insert { parent = Some 999; entry = person ~id:200 () })))

let test_ops_of_subtree_roundtrip () =
  let sub = Result.get_ok (Instance.subtree wp 1) in
  let base = Result.get_ok (Instance.remove_subtree 1 wp) in
  let ops = Update.ops_of_subtree ~parent:(Some 0) sub in
  let rebuilt = Result.get_ok (Update.apply base ops) in
  check "rebuilt equals original" true (Instance.equal rebuilt wp);
  (* deletion sequence is leaf-first and valid *)
  let del_ops = Update.ops_of_deletion wp 1 in
  let gone = Result.get_ok (Update.apply wp del_ops) in
  check "subtree gone" true (Instance.equal gone base)

(* --- Transaction decomposition (Theorem 4.1) ------------------------------- *)

let test_decompose_groups_inserts () =
  (* insert a unit and two persons under it: one subtree *)
  let u = unit_entry ~id:100 () in
  let ops =
    [
      Update.Insert { parent = Some 1; entry = u };
      Update.Insert { parent = Some 100; entry = person ~id:101 ~uid:"u101" () };
      Update.Insert { parent = Some 100; entry = person ~id:102 ~uid:"u102" () };
    ]
  in
  match Transaction.decompose wp ops with
  | Error m -> Alcotest.fail m
  | Ok [ Transaction.Insert_subtree { parent = Some 1; subtree } ] ->
      check_int "subtree size" 3 (Instance.size subtree)
  | Ok other ->
      Alcotest.failf "expected one insert, got %d updates" (List.length other)

let test_decompose_groups_deletes () =
  (* delete laks, suciu, then databases: one subtree deletion *)
  let ops = [ Update.Delete 4; Update.Delete 5; Update.Delete 3 ] in
  match Transaction.decompose wp ops with
  | Ok [ Transaction.Delete_subtree { root = 3 } ] -> ()
  | Ok _ -> Alcotest.fail "expected a single subtree deletion"
  | Error m -> Alcotest.fail m

let test_decompose_cancelling_ops () =
  (* insert then delete the same entry: net no-op *)
  let ops =
    [
      Update.Insert { parent = Some 3; entry = person ~id:100 () };
      Update.Delete 100;
    ]
  in
  match Transaction.decompose wp ops with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty decomposition"
  | Error m -> Alcotest.fail m

let test_decompose_rejects_moves () =
  (* delete laks then recreate it elsewhere with the same id *)
  let laks = Instance.entry wp 4 in
  let ops = [ Update.Delete 4; Update.Insert { parent = Some 1; entry = laks } ] in
  check "move rejected" true (Result.is_error (Transaction.decompose wp ops))

let test_transaction_check_accepts () =
  let ops =
    [
      Update.Insert { parent = Some 1; entry = unit_entry ~id:100 () };
      Update.Insert { parent = Some 100; entry = person ~id:101 ~uid:"u101" () };
    ]
  in
  match Transaction.check wp_schema wp ops with
  | Ok inst -> check_int "applied" 8 (Instance.size inst)
  | Error r -> Alcotest.failf "%a" (fun ppf -> Transaction.pp_rejection ppf) r

let test_transaction_check_rejects_intermediate () =
  (* the paper's Section 4.1 example, inverted: a unit with no person is
     illegal as a standalone insertion *)
  let ops = [ Update.Insert { parent = Some 1; entry = unit_entry ~id:100 () } ] in
  (match Transaction.check wp_schema wp ops with
  | Error (Transaction.Illegal { step; _ }) -> check_int "rejected at step 1" 1 step
  | Error (Transaction.Bad_ops m) -> Alcotest.fail m
  | Ok _ -> Alcotest.fail "should have been rejected");
  (* but together with its person it passes — exactly the granularity
     argument of Section 4.1 *)
  let ops =
    ops @ [ Update.Insert { parent = Some 100; entry = person ~id:101 ~uid:"u101" () } ]
  in
  check "combined ok" true (Result.is_ok (Transaction.check wp_schema wp ops))

(* Theorem 4.1 as a property: the final instance is legal iff every
   decomposed step preserves legality. *)
let arb_txn =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 100000) (int_bound 12))

let prop_theorem_41 =
  QCheck.Test.make ~name:"Theorem 4.1: stepwise legality = final legality" ~count:150
    arb_txn (fun (seed, n) ->
      let base = WP.generate ~seed ~units:3 ~persons_per_unit:2 () in
      let ops = Bounds_workload.Gen.random_ops ~seed:(seed + 1) ~n wp_schema base in
      let final = Result.get_ok (Update.apply base ops) in
      let final_legal = Legality.is_legal wp_schema final in
      match Transaction.check wp_schema base ops with
      | Ok inst -> final_legal && Instance.equal inst final
      | Error (Transaction.Illegal _) -> not final_legal
      | Error (Transaction.Bad_ops _) -> false)

(* --- Figure 5 testability table -------------------------------------------- *)

let test_figure5_table () =
  List.iter
    (fun rel -> check "insert testable" true (Incremental.testable_on_insert_req rel))
    [ SS.Child; SS.Descendant; SS.Parent; SS.Ancestor ];
  check "ch delete not testable" false (Incremental.testable_on_delete_req SS.Child);
  check "de delete not testable" false
    (Incremental.testable_on_delete_req SS.Descendant);
  check "pa delete testable" true (Incremental.testable_on_delete_req SS.Parent);
  check "an delete testable" true (Incremental.testable_on_delete_req SS.Ancestor);
  List.iter
    (fun f ->
      check "forb insert testable" true (Incremental.testable_on_insert_forb f);
      check "forb delete testable" true (Incremental.testable_on_delete_forb f))
    [ SS.F_child; SS.F_descendant ];
  (* Δ-query scopes: parent/ancestor insertions read D+Δ, others Δ-only *)
  let scopes rel = List.map snd (Incremental.delta_query_insert (c "a", rel, c "b")) in
  check "child all delta" true
    (List.for_all (( = ) Incremental.On_delta) (scopes SS.Child));
  check "parent touches updated" true
    (List.mem Incremental.On_updated (scopes SS.Parent));
  let dscopes rel =
    List.map snd (Incremental.delta_query_delete_req (c "a", rel, c "b"))
  in
  check "pa delete no check" true
    (List.for_all (( = ) Incremental.On_empty) (dscopes SS.Parent));
  check "ch delete full recheck" true
    (List.for_all (( = ) Incremental.On_updated) (dscopes SS.Child))

(* --- incremental insert / delete vs full recheck ---------------------------- *)

let test_incremental_insert_examples () =
  (* legal: unit + person inserted together under attLabs *)
  let delta =
    Instance.empty
    |> Instance.add_root_exn (unit_entry ~id:100 ())
    |> Instance.add_child_exn ~parent:100 (person ~id:101 ~uid:"u101" ())
  in
  (match Incremental.check_insert wp_schema ~base:wp ~parent:(Some 1) ~delta with
  | Ok [] -> ()
  | Ok viols ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Violation.to_string viols))
  | Error m -> Alcotest.fail m);
  (* illegal: unit alone violates orgGroup ->> person *)
  let delta_unit = Instance.add_root_exn (unit_entry ~id:100 ()) Instance.empty in
  (match Incremental.check_insert wp_schema ~base:wp ~parent:(Some 1) ~delta:delta_unit with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "should have violations"
  | Error m -> Alcotest.fail m);
  (* illegal: the Section 4.2 example — unit under a person *)
  (match Incremental.check_insert wp_schema ~base:wp ~parent:(Some 5) ~delta with
  | Ok viols ->
      check "parent rel violated" true
        (List.exists
           (function
             | Violation.Unsatisfied_rel { rel = (_, SS.Parent, _); _ } -> true
             | _ -> false)
           viols);
      check "forbidden person child violated" true
        (List.exists
           (function Violation.Forbidden_rel _ -> true | _ -> false)
           viols)
  | Error m -> Alcotest.fail m)

let test_incremental_insert_rejects_bad_shape () =
  check "empty delta" true
    (Result.is_error
       (Incremental.check_insert wp_schema ~base:wp ~parent:None ~delta:Instance.empty));
  let two_roots =
    Instance.empty
    |> Instance.add_root_exn (person ~id:100 ())
    |> Instance.add_root_exn (person ~id:101 ~uid:"u101" ())
  in
  check "multi-rooted delta" true
    (Result.is_error
       (Incremental.check_insert wp_schema ~base:wp ~parent:None ~delta:two_roots));
  check "bad parent" true
    (Result.is_error
       (Incremental.check_insert wp_schema ~base:wp ~parent:(Some 999)
          ~delta:(Instance.add_root_exn (person ~id:100 ()) Instance.empty)))

let test_incremental_delete_examples () =
  (* deleting suciu is fine (laks remains under databases) *)
  (match Incremental.check_delete wp_schema ~base:wp ~root:5 with
  | Ok [] -> ()
  | Ok v ->
      Alcotest.failf "unexpected: %s" (String.concat "; " (List.map Violation.to_string v))
  | Error m -> Alcotest.fail m);
  (* deleting the whole databases subtree leaves attLabs without a person
     descendant *)
  (match Incremental.check_delete wp_schema ~base:wp ~root:3 with
  | Ok viols ->
      check "attLabs violated" true
        (List.exists
           (function
             | Violation.Unsatisfied_rel { entry = 1; rel = (_, SS.Descendant, _) } ->
                 true
             | _ -> false)
           viols)
  | Error m -> Alcotest.fail m);
  (* deleting armstrong is fine; deleting armstrong after databases would
     kill the last person, caught by the required-class count *)
  let no_dbs = Result.get_ok (Instance.remove_subtree 3 wp) in
  (match Incremental.check_delete wp_schema ~base:no_dbs ~root:2 with
  | Ok viols ->
      check "required class person" true
        (List.exists
           (function
             | Violation.Missing_required_class { cls } -> Oclass.equal cls (c "person")
             | _ -> false)
           viols)
  | Error m -> Alcotest.fail m)

(* Property: incremental insert verdict == full-check verdict on D+Δ. *)
let arb_ins =
  QCheck.make
    ~print:(fun (seed, units, dsize) ->
      Printf.sprintf "seed=%d units=%d dsize=%d" seed units dsize)
    QCheck.Gen.(triple (int_bound 100000) (int_range 1 5) (int_range 1 8))

let random_wp_delta ~seed ~size ~first_id =
  (* a random single-rooted white-pages-flavoured subtree: a unit root with
     persons/subunits below, or a lone person *)
  let rng = Random.State.make [| seed; 5 |] in
  if size = 1 && Random.State.bool rng then
    Instance.add_root_exn
      (person ~id:first_id ~uid:(Printf.sprintf "d%d" first_id) ())
      Instance.empty
  else begin
    let inst = ref (Instance.add_root_exn (unit_entry ~id:first_id ~ou:(Printf.sprintf "ou%d" first_id) ()) Instance.empty) in
    let units = ref [ first_id ] in
    for k = 1 to size - 1 do
      let id = first_id + k in
      let parent = List.nth !units (Random.State.int rng (List.length !units)) in
      if Random.State.int rng 3 = 0 then begin
        inst :=
          Instance.add_child_exn ~parent
            (unit_entry ~id ~ou:(Printf.sprintf "ou%d" id) ())
            !inst;
        units := id :: !units
      end
      else
        inst :=
          Instance.add_child_exn ~parent
            (person ~id ~uid:(Printf.sprintf "d%d" id) ())
            !inst
    done;
    !inst
  end

let prop_incremental_insert =
  QCheck.Test.make ~name:"incremental insert = full recheck" ~count:200 arb_ins
    (fun (seed, units, dsize) ->
      let base = WP.generate ~seed ~units ~persons_per_unit:2 () in
      let delta = random_wp_delta ~seed:(seed + 1) ~size:dsize ~first_id:(Instance.fresh_id base) in
      let rng = Random.State.make [| seed; 9 |] in
      let ids = Instance.ids base in
      let parent =
        if Random.State.int rng 8 = 0 then None
        else Some (List.nth ids (Random.State.int rng (List.length ids)))
      in
      let inc =
        match Incremental.check_insert wp_schema ~base ~parent ~delta with
        | Ok v -> v
        | Error m -> failwith m
      in
      let full =
        Legality.check ~extensions:false wp_schema
          (Result.get_ok (Instance.graft ~parent delta base))
      in
      (inc = []) = (full = []))

let prop_incremental_delete =
  QCheck.Test.make ~name:"incremental delete = full recheck" ~count:200
    (QCheck.make
       ~print:(fun (seed, units) -> Printf.sprintf "seed=%d units=%d" seed units)
       QCheck.Gen.(pair (int_bound 100000) (int_range 1 5)))
    (fun (seed, units) ->
      let base = WP.generate ~seed ~units ~persons_per_unit:2 () in
      let rng = Random.State.make [| seed; 13 |] in
      let ids = Instance.ids base in
      let root = List.nth ids (Random.State.int rng (List.length ids)) in
      let inc =
        match Incremental.check_delete wp_schema ~base ~root with
        | Ok v -> v
        | Error m -> failwith m
      in
      (* the class counts a monitor keeps, taken from [base] *)
      let class_count cls =
        Instance.fold (fun e k -> if Entry.has_class e cls then k + 1 else k) base 0
      in
      let counted =
        match Incremental.check_delete ~class_count wp_schema ~base ~root with
        | Ok v -> v
        | Error m -> failwith m
      in
      let full =
        Legality.check ~extensions:false wp_schema
          (Result.get_ok (Instance.remove_subtree root base))
      in
      (inc = []) = (full = []) && inc = counted)

(* --- Monitor ----------------------------------------------------------------- *)

let test_monitor_lifecycle () =
  let m = Result.get_ok (Monitor.create wp_schema wp) in
  check_int "person count" 3 (Monitor.class_count m (c "person"));
  check_int "orggroup count" 3 (Monitor.class_count m (c "orggroup"));
  (* legal insert *)
  let delta =
    Instance.add_root_exn (person ~id:100 ~uid:"fresh1" ()) Instance.empty
  in
  let m, _ = Result.get_ok (Monitor.insert_subtree ~parent:(Some 3) delta m) in
  check_int "person count bumped" 4 (Monitor.class_count m (c "person"));
  check_int "size" 7 (Instance.size (Monitor.instance m));
  (* illegal insert rejected, monitor unchanged *)
  let bad = Instance.add_root_exn (unit_entry ~id:200 ()) Instance.empty in
  (match Monitor.insert_subtree ~parent:(Some 1) bad m with
  | Error (_ :: _) -> ()
  | _ -> Alcotest.fail "should reject");
  check_int "unchanged" 7 (Instance.size (Monitor.instance m));
  (* legal delete *)
  let m, _ = Result.get_ok (Monitor.delete_subtree 100 m) in
  check_int "person count restored" 3 (Monitor.class_count m (c "person"))

let test_monitor_rejects_illegal_base () =
  let bad = Instance.add_root_exn (unit_entry ~id:100 ()) wp in
  check "illegal base" true (Result.is_error (Monitor.create wp_schema bad))

let test_monitor_key_enforcement () =
  let m = Result.get_ok (Monitor.create wp_schema wp) in
  let dup = Instance.add_root_exn (person ~id:100 ~uid:"laks" ()) Instance.empty in
  (match Monitor.insert_subtree ~parent:(Some 3) dup m with
  | Error viols ->
      check "duplicate key caught" true
        (List.exists
           (function Violation.Duplicate_key _ -> true | _ -> false)
           viols)
  | Ok _ -> Alcotest.fail "key violation missed");
  (* delete laks then reuse the uid: must now be accepted *)
  let m, _ = Result.get_ok (Monitor.delete_subtree 4 m) in
  check "uid freed" true (Result.is_ok (Monitor.insert_subtree ~parent:(Some 3) dup m))

let test_monitor_transaction () =
  let m = Result.get_ok (Monitor.create wp_schema wp) in
  let ops =
    [
      Update.Insert { parent = Some 1; entry = unit_entry ~id:100 () };
      Update.Insert { parent = Some 100; entry = person ~id:101 ~uid:"u101" () };
      Update.Delete 5;
    ]
  in
  (match Monitor.apply ops m with
  | Ok (m', _) ->
      check_int "size" 7 (Instance.size (Monitor.instance m'));
      check "legal" true (Legality.is_legal wp_schema (Monitor.instance m'))
  | Error r -> Alcotest.failf "%a" (fun ppf -> Monitor.pp_rejection ppf) r);
  (* rejected transaction leaves monitor intact *)
  let bad_ops = [ Update.Delete 4; Update.Delete 5; Update.Delete 3; Update.Delete 2 ] in
  (match Monitor.apply bad_ops m with
  | Error (Monitor.Illegal _) -> ()
  | _ -> Alcotest.fail "should reject (kills all persons)");
  check_int "intact" 6 (Instance.size (Monitor.instance m))

(* Property: a Monitor fed random transactions accepts exactly those whose
   full recheck is legal, and its instance always stays legal. *)
let prop_monitor_agrees =
  QCheck.Test.make ~name:"monitor accepts iff full recheck legal" ~count:100 arb_txn
    (fun (seed, n) ->
      let base = WP.generate ~seed ~units:3 ~persons_per_unit:2 () in
      let m = Result.get_ok (Monitor.create wp_schema base) in
      let ops = Bounds_workload.Gen.random_ops ~seed:(seed + 2) ~n wp_schema base in
      let final = Result.get_ok (Update.apply base ops) in
      match Monitor.apply ops m with
      | Ok (m', _) ->
          Legality.is_legal wp_schema (Monitor.instance m')
          && Instance.equal (Monitor.instance m') final
      | Error (Monitor.Illegal _) -> not (Legality.is_legal wp_schema final)
      | Error (Monitor.Bad_ops _) -> false)

let test_monitor_modify () =
  let m = Result.get_ok (Monitor.create wp_schema wp) in
  (* a content edit within bounds *)
  let m =
    Result.get_ok
      (Monitor.modify_entry 4
         (Entry.add_value (a "mail") (Value.String "laks@ubc.ca"))
         m)
  in
  check_int "three mails now" 3
    (List.length (Entry.values (Instance.entry (Monitor.instance m) 4) (a "mail")));
  check "still legal" true (Legality.is_legal wp_schema (Monitor.instance m));
  (* removing a required attribute is rejected *)
  (match Monitor.modify_entry 4 (Entry.remove_attr (a "name")) m with
  | Error viols ->
      check "missing name caught" true
        (List.exists
           (function Violation.Missing_required_attr _ -> true | _ -> false)
           viols)
  | Ok _ -> Alcotest.fail "should reject");
  (* taking someone else's key value is rejected *)
  (match
     Monitor.modify_entry 5
       (fun e ->
         Entry.remove_attr (a "uid") e
         |> Entry.add_value (a "uid") (Value.String "laks"))
       m
   with
  | Error viols ->
      check "duplicate key caught" true
        (List.exists
           (function Violation.Duplicate_key _ -> true | _ -> false)
           viols)
  | Ok _ -> Alcotest.fail "should reject");
  (* an entry may re-assert its own key value *)
  let m =
    Result.get_ok
      (Monitor.modify_entry 5
         (fun e ->
           Entry.remove_attr (a "uid") e
           |> Entry.add_value (a "uid") (Value.String "suciu"))
         m)
  in
  (* ... and once renamed, the old value is free for others *)
  let m =
    Result.get_ok
      (Monitor.modify_entry 5
         (fun e ->
           Entry.remove_attr (a "uid") e
           |> Entry.add_value (a "uid") (Value.String "dan"))
         m)
  in
  check "freed key reusable" true
    (Result.is_ok
       (Monitor.modify_entry 2
          (fun e ->
            Entry.remove_attr (a "uid") e
            |> Entry.add_value (a "uid") (Value.String "suciu"))
          m));
  (* class-set changes are out of scope for modify *)
  Alcotest.check_raises "class change rejected"
    (Invalid_argument
       "Monitor.modify_entry: attribute-level modification must preserve the class \
        set (use delete + insert to reclassify)")
    (fun () -> ignore (Monitor.modify_entry 2 (Entry.add_class (c "online")) m))

(* Integration soak: a directory lives through schema-spec round-trips,
   LDIF round-trips, and a long stream of random transactions guarded by
   the monitor — the instance must stay legal at every step and agree
   with an unguarded replay of the accepted transactions. *)
let test_soak () =
  (* the schema itself round-trips through its textual form *)
  let schema = Spec_parser.parse_exn (Spec_printer.to_string wp_schema) in
  Alcotest.(check bool) "schema roundtrip" true (Schema.equal schema wp_schema);
  let base = WP.generate ~seed:2026 ~units:8 ~persons_per_unit:4 () in
  let m = ref (Result.get_ok (Monitor.create schema base)) in
  let replay = ref base in
  let accepted = ref 0 and rejected = ref 0 in
  for round = 1 to 40 do
    let ops =
      Bounds_workload.Gen.random_ops ~seed:(round * 31) ~n:(1 + (round mod 6))
        schema (Monitor.instance !m)
    in
    (match Monitor.apply ops !m with
    | Ok (m', _) ->
        incr accepted;
        m := m';
        replay := Result.get_ok (Update.apply !replay ops)
    | Error (Monitor.Illegal _) -> incr rejected
    | Error (Monitor.Bad_ops msg) -> Alcotest.fail msg);
    (* invariant: the guarded instance is always fully legal *)
    if round mod 10 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "legal after round %d" round)
        true
        (Legality.is_legal schema (Monitor.instance !m));
    (* periodic LDIF round-trip preserves the instance *)
    if round mod 20 = 0 then begin
      let ldif = Bounds_codec.Ldif.to_string (Monitor.instance !m) in
      let back = Bounds_codec.Ldif.parse_exn ~typing:schema.Schema.typing ldif in
      Alcotest.(check bool)
        (Printf.sprintf "ldif legal after round %d" round)
        true
        (Legality.is_legal schema back)
    end
  done;
  Alcotest.(check bool) "replay agrees" true
    (Instance.equal !replay (Monitor.instance !m));
  Alcotest.(check bool) "exercised both outcomes" true (!accepted > 0 && !rejected > 0);
  (* finally, evolve the schema over the survivor *)
  let migration =
    Result.get_ok
      (Evolution.migrate
         [
           Evolution.Add_allowed_attribute (c "person", a "pager");
           Evolution.Add_aux_class (c "contractor");
           Evolution.Allow_aux { core = c "person"; aux = c "contractor" };
         ]
         schema (Monitor.instance !m))
  in
  Alcotest.(check bool) "lightweight migration" false migration.Evolution.revalidated;
  Alcotest.(check bool) "still legal under evolved schema" true
    (Legality.is_legal migration.Evolution.schema (Monitor.instance !m))

let () =
  Alcotest.run "update"
    [
      ( "ops",
        [
          Alcotest.test_case "apply discipline" `Quick test_apply_op;
          Alcotest.test_case "subtree ops roundtrip" `Quick test_ops_of_subtree_roundtrip;
        ] );
      ( "transaction",
        [
          Alcotest.test_case "groups inserts" `Quick test_decompose_groups_inserts;
          Alcotest.test_case "groups deletes" `Quick test_decompose_groups_deletes;
          Alcotest.test_case "cancelling ops" `Quick test_decompose_cancelling_ops;
          Alcotest.test_case "rejects moves" `Quick test_decompose_rejects_moves;
          Alcotest.test_case "check accepts" `Quick test_transaction_check_accepts;
          Alcotest.test_case "check rejects intermediate" `Quick
            test_transaction_check_rejects_intermediate;
          QCheck_alcotest.to_alcotest prop_theorem_41;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "figure 5 table" `Quick test_figure5_table;
          Alcotest.test_case "insert examples" `Quick test_incremental_insert_examples;
          Alcotest.test_case "insert shape errors" `Quick
            test_incremental_insert_rejects_bad_shape;
          Alcotest.test_case "delete examples" `Quick test_incremental_delete_examples;
          QCheck_alcotest.to_alcotest prop_incremental_insert;
          QCheck_alcotest.to_alcotest prop_incremental_delete;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "lifecycle" `Quick test_monitor_lifecycle;
          Alcotest.test_case "rejects illegal base" `Quick
            test_monitor_rejects_illegal_base;
          Alcotest.test_case "key enforcement" `Quick test_monitor_key_enforcement;
          Alcotest.test_case "transactions" `Quick test_monitor_transaction;
          Alcotest.test_case "attribute-level modify" `Quick test_monitor_modify;
          QCheck_alcotest.to_alcotest prop_monitor_agrees;
        ] );
      ("integration", [ Alcotest.test_case "soak" `Slow test_soak ]);
    ]
