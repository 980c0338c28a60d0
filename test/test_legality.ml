(* Legality testing (Section 3): every clause of Definition 2.7, the
   Figure-4 query reduction, and equivalence with the naive quadratic
   checker. *)

open Bounds_model
open Bounds_core
module WP = Bounds_workload.White_pages

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let a = Attr.of_string
let c = Oclass.of_string

let wp_schema = WP.schema
let wp = WP.instance

let has_violation pred viols = List.exists pred viols

let person_entry ?(id = 100) ?(uid = "u100") ?(extra = []) ?(classes = []) () =
  Entry.make ~id
    ~classes:
      (Oclass.Set.of_list
         (if classes = [] then [ c "person"; Oclass.top ] else classes))
    ([ (a "name", Value.String "n"); (a "uid", Value.String uid) ] @ extra)

(* --- baseline: the paper's instance is legal ---------------------------- *)

let test_white_pages_legal () =
  Alcotest.(check (list string))
    "no violations" []
    (List.map Violation.to_string (Legality.check wp_schema wp));
  check "is_legal" true (Legality.is_legal wp_schema wp)

(* --- attribute schema clauses ------------------------------------------- *)

let test_missing_required_attr () =
  let e =
    Entry.make ~id:100
      ~classes:(Oclass.Set.of_list [ c "person"; Oclass.top ])
      [ (a "name", Value.String "x") ]
    (* uid missing *)
  in
  let viols = Content_legality.check_entry wp_schema e in
  check "missing uid" true
    (has_violation
       (function
         | Violation.Missing_required_attr { attr; _ } -> Attr.equal attr (a "uid")
         | _ -> false)
       viols)

let test_attr_not_allowed () =
  let e = person_entry ~extra:[ (a "salary", Value.String "lots") ] () in
  let viols = Content_legality.check_entry wp_schema e in
  check "salary not allowed" true
    (has_violation
       (function
         | Violation.Attr_not_allowed { attr; _ } -> Attr.equal attr (a "salary")
         | _ -> false)
       viols)

let test_aux_attrs_allowed_through_aux_class () =
  (* mail is allowed only via the online auxiliary class *)
  let without_online = person_entry ~extra:[ (a "mail", Value.String "x@y") ] () in
  check "mail rejected without online" true
    (has_violation
       (function Violation.Attr_not_allowed _ -> true | _ -> false)
       (Content_legality.check_entry wp_schema without_online));
  let with_online =
    person_entry
      ~classes:[ c "person"; c "online"; Oclass.top ]
      ~extra:[ (a "mail", Value.String "x@y") ]
      ()
  in
  Alcotest.(check (list string))
    "mail accepted with online" []
    (List.map Violation.to_string (Content_legality.check_entry wp_schema with_online))

(* --- class schema clauses ------------------------------------------------ *)

let test_unknown_class () =
  let e = person_entry ~classes:[ c "person"; c "martian"; Oclass.top ] () in
  check "unknown class" true
    (has_violation
       (function
         | Violation.Unknown_class { cls; _ } -> Oclass.equal cls (c "martian")
         | _ -> false)
       (Content_legality.check_entry wp_schema e))

let test_no_core_class () =
  let e =
    Entry.make ~id:100 ~classes:(Oclass.Set.of_list [ c "online" ]) []
  in
  check "no core class" true
    (has_violation
       (function Violation.No_core_class _ -> true | _ -> false)
       (Content_legality.check_entry wp_schema e))

let test_missing_superclass () =
  (* researcher without person *)
  let e =
    Entry.make ~id:100
      ~classes:(Oclass.Set.of_list [ c "researcher"; Oclass.top ])
      [ (a "name", Value.String "n"); (a "uid", Value.String "u") ]
  in
  check "missing person" true
    (has_violation
       (function
         | Violation.Missing_superclass { super; _ } -> Oclass.equal super (c "person")
         | _ -> false)
       (Content_legality.check_entry wp_schema e))

let test_incomparable_core_classes () =
  (* the paper: an orgUnit must not also be a person *)
  let e =
    Entry.make ~id:100
      ~classes:
        (Oclass.Set.of_list [ c "orgunit"; c "orggroup"; c "person"; Oclass.top ])
      [
        (a "ou", Value.String "x");
        (a "name", Value.String "n");
        (a "uid", Value.String "u");
      ]
  in
  check "incomparable" true
    (has_violation
       (function Violation.Incomparable_classes _ -> true | _ -> false)
       (Content_legality.check_entry wp_schema e))

let test_aux_not_allowed () =
  (* facultyMember is allowed for researchers, not staff *)
  let e =
    Entry.make ~id:100
      ~classes:
        (Oclass.Set.of_list
           [ c "staffmember"; c "person"; c "facultymember"; Oclass.top ])
      [ (a "name", Value.String "n"); (a "uid", Value.String "u") ]
  in
  check "aux not allowed" true
    (has_violation
       (function
         | Violation.Aux_not_allowed { aux; _ } -> Oclass.equal aux (c "facultymember")
         | _ -> false)
       (Content_legality.check_entry wp_schema e))

let test_typing_violation () =
  let e =
    person_entry ~extra:[ (a "telephonenumber", Value.String "not-a-phone") ] ()
  in
  check "typing" true
    (has_violation
       (function
         | Violation.Type_violation { expected; _ } -> expected = Atype.T_telephone
         | _ -> false)
       (Content_legality.check_entry wp_schema e))

(* --- structure schema clauses ------------------------------------------- *)

let add_person parent inst ~id ~uid =
  Instance.add_child_exn ~parent (person_entry ~id ~uid ()) inst

let test_missing_required_class () =
  (* delete all orgUnits: attLabs subtree - keep armstrong so person holds *)
  let smaller = Result.get_ok (Instance.remove_subtree 1 wp) in
  let viols = Structure_legality.check wp_schema smaller in
  check "orgunit missing" true
    (has_violation
       (function
         | Violation.Missing_required_class { cls } -> Oclass.equal cls (c "orgunit")
         | _ -> false)
       viols)

let test_unsatisfied_descendant () =
  (* a fresh orgUnit with no person below violates orgGroup ->> person *)
  let unit_entry =
    Entry.make ~id:100
      ~classes:(Oclass.Set.of_list [ c "orgunit"; c "orggroup"; Oclass.top ])
      [ (a "ou", Value.String "empty") ]
  in
  let inst = Instance.add_child_exn ~parent:1 unit_entry wp in
  let viols = Structure_legality.check wp_schema inst in
  check "unsatisfied descendant" true
    (has_violation
       (function
         | Violation.Unsatisfied_rel
             { entry = 100; rel = (ci, Structure_schema.Descendant, cj) } ->
             Oclass.equal ci (c "orggroup") && Oclass.equal cj (c "person")
         | _ -> false)
       viols)

let test_unsatisfied_parent () =
  (* an orgUnit directly under a person violates orgUnit <-parent- orgGroup;
     also forbidden person -/-> top *)
  let unit_entry =
    Entry.make ~id:100
      ~classes:(Oclass.Set.of_list [ c "orgunit"; c "orggroup"; Oclass.top ])
      [ (a "ou", Value.String "under-suciu") ]
  in
  let inst = Instance.add_child_exn ~parent:5 unit_entry wp in
  let inst = add_person 100 inst ~id:101 ~uid:"u101" in
  let viols = Structure_legality.check wp_schema inst in
  check "unsatisfied parent rel" true
    (has_violation
       (function
         | Violation.Unsatisfied_rel { entry = 100; rel = (_, Structure_schema.Parent, _) }
           ->
             true
         | _ -> false)
       viols)

let test_forbidden_child () =
  (* any child under a person violates person -/-> top *)
  let inst = add_person 4 wp ~id:100 ~uid:"u100" in
  let viols = Structure_legality.check wp_schema inst in
  check "forbidden child with witness pair" true
    (has_violation
       (function
         | Violation.Forbidden_rel { source = 4; target = 100; rel = (ci, Structure_schema.F_child, cj) }
           ->
             Oclass.equal ci (c "person") && Oclass.equal cj Oclass.top
         | _ -> false)
       viols)

let test_forbidden_descendant () =
  let schema =
    let structure =
      Structure_schema.forbid (c "organization") Structure_schema.F_descendant
        (c "organization") wp_schema.Schema.structure
    in
    Schema.make_exn ~typing:wp_schema.Schema.typing
      ~attributes:wp_schema.Schema.attributes ~classes:wp_schema.Schema.classes
      ~structure ()
  in
  check "wp still legal" true (Structure_legality.is_legal schema wp);
  (* nest an organization under attLabs *)
  let org =
    Entry.make ~id:100
      ~classes:(Oclass.Set.of_list [ c "organization"; c "orggroup"; Oclass.top ])
      [ (a "o", Value.String "sub") ]
  in
  let inst = Instance.add_child_exn ~parent:1 org wp in
  let inst = add_person 100 inst ~id:101 ~uid:"u101" in
  check "nested org detected" true
    (has_violation
       (function
         | Violation.Forbidden_rel { source = 0; target = 100; _ } -> true
         | _ -> false)
       (Structure_legality.check schema inst))

(* --- Figure 4 translation ------------------------------------------------ *)

let test_translate_shapes () =
  let req = (c "a", Structure_schema.Descendant, c "b") in
  (match Translate.required_rel req with
  | Bounds_query.Query.Minus
      ( Bounds_query.Query.Select _,
        Bounds_query.Query.Chi (Bounds_query.Query.Descendant, _, _) ) ->
      ()
  | _ -> Alcotest.fail "required_rel shape");
  (match Translate.forbidden_rel (c "a", Structure_schema.F_child, c "b") with
  | Bounds_query.Query.Chi (Bounds_query.Query.Child, _, _) -> ()
  | _ -> Alcotest.fail "forbidden_rel shape");
  let all = Translate.all wp_schema.Schema.structure in
  check_int "one obligation per element" (Structure_schema.size wp_schema.Schema.structure)
    (List.length all);
  (* expectations paired correctly *)
  List.iter
    (fun (ob, _, exp) ->
      match (ob, exp) with
      | Translate.Oblig_class _, Translate.Must_be_nonempty -> ()
      | (Translate.Oblig_required _ | Translate.Oblig_forbidden _), Translate.Must_be_empty
        ->
          ()
      | _ -> Alcotest.fail "mispaired expectation")
    all

let test_translate_legality_equivalence () =
  (* legality iff all required/forbidden queries empty and class queries
     non-empty — checked through the public API on both a legal and an
     illegal instance *)
  let ix = Bounds_query.Index.create wp in
  List.iter
    (fun (_, q, exp) ->
      let empty = Bounds_query.Eval.is_empty ix q in
      match exp with
      | Translate.Must_be_empty -> check "empty on legal" true empty
      | Translate.Must_be_nonempty -> check "non-empty on legal" false empty)
    (Translate.all wp_schema.Schema.structure)

(* --- extensions ----------------------------------------------------------- *)

let test_single_valued () =
  let e =
    person_entry
      ~extra:[ (a "uid", Value.String "second-uid") ]
      ()
  in
  let inst = Instance.add_child_exn ~parent:3 e wp in
  check "uid multi-valued" true
    (has_violation
       (function
         | Violation.Multiple_values { attr; count = 2; _ } -> Attr.equal attr (a "uid")
         | _ -> false)
       (Legality.check wp_schema inst))

let test_keys () =
  (* duplicate uid=laks *)
  let e = person_entry ~id:100 ~uid:"laks" () in
  let inst = Instance.add_child_exn ~parent:3 e wp in
  check "duplicate key" true
    (has_violation
       (function
         | Violation.Duplicate_key { attr; entries; _ } ->
             Attr.equal attr (a "uid") && List.mem 4 entries && List.mem 100 entries
         | _ -> false)
       (Legality.check wp_schema inst));
  check "extensions off ignores it" true
    (Legality.is_legal ~extensions:false wp_schema inst)

(* --- Theorem 3.1: fast checker ≡ naive checker --------------------------- *)

let gen_schema_and_instance =
  QCheck.Gen.(
    map2
      (fun seed size ->
        let schema =
          Bounds_workload.Gen.random_schema ~seed ~n_classes:5 ~n_req:4 ~n_forb:2
            ~n_required_classes:2
        in
        let inst =
          Bounds_workload.Gen.content_legal_forest ~seed:(seed + 1)
            ~size:(max 1 size) schema
        in
        (schema, inst))
      (int_bound 100000) (int_bound 60))

let arb_si =
  QCheck.make
    ~print:(fun (schema, inst) ->
      Format.asprintf "schema:@ %a@ instance size %d" Schema.pp schema
        (Instance.size inst))
    gen_schema_and_instance

let sorted_structure schema inst checker = List.sort Violation.compare (checker schema inst)

let prop_fast_eq_naive =
  QCheck.Test.make ~name:"query-based structure check = naive pairwise check"
    ~count:200 arb_si (fun (schema, inst) ->
      sorted_structure schema inst Structure_legality.check
      = sorted_structure schema inst Naive_legality.check_structure)

let prop_full_checkers_agree =
  QCheck.Test.make ~name:"full fast checker = full naive checker" ~count:100 arb_si
    (fun (schema, inst) ->
      List.sort Violation.compare (Legality.check schema inst)
      = List.sort Violation.compare (Naive_legality.check schema inst))

let prop_vindex_agrees =
  QCheck.Test.make ~name:"legality with vindex = without" ~count:100 arb_si
    (fun (schema, inst) ->
      let ix = Bounds_query.Index.create inst in
      let vx = Bounds_query.Vindex.create ix in
      List.sort Violation.compare (Legality.check ~index:ix ~vindex:vx schema inst)
      = List.sort Violation.compare (Legality.check schema inst))

let () =
  Alcotest.run "legality"
    [
      ("baseline", [ Alcotest.test_case "white pages legal" `Quick test_white_pages_legal ]);
      ( "attribute-schema",
        [
          Alcotest.test_case "missing required attr" `Quick test_missing_required_attr;
          Alcotest.test_case "attr not allowed" `Quick test_attr_not_allowed;
          Alcotest.test_case "aux class attrs" `Quick
            test_aux_attrs_allowed_through_aux_class;
        ] );
      ( "class-schema",
        [
          Alcotest.test_case "unknown class" `Quick test_unknown_class;
          Alcotest.test_case "no core class" `Quick test_no_core_class;
          Alcotest.test_case "missing superclass" `Quick test_missing_superclass;
          Alcotest.test_case "incomparable cores" `Quick test_incomparable_core_classes;
          Alcotest.test_case "aux not allowed" `Quick test_aux_not_allowed;
          Alcotest.test_case "typing" `Quick test_typing_violation;
        ] );
      ( "structure-schema",
        [
          Alcotest.test_case "missing required class" `Quick test_missing_required_class;
          Alcotest.test_case "unsatisfied descendant" `Quick test_unsatisfied_descendant;
          Alcotest.test_case "unsatisfied parent" `Quick test_unsatisfied_parent;
          Alcotest.test_case "forbidden child" `Quick test_forbidden_child;
          Alcotest.test_case "forbidden descendant" `Quick test_forbidden_descendant;
        ] );
      ( "figure-4",
        [
          Alcotest.test_case "translation shapes" `Quick test_translate_shapes;
          Alcotest.test_case "legality equivalence" `Quick
            test_translate_legality_equivalence;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "single-valued" `Quick test_single_valued;
          Alcotest.test_case "keys" `Quick test_keys;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_fast_eq_naive;
          QCheck_alcotest.to_alcotest prop_full_checkers_agree;
          QCheck_alcotest.to_alcotest prop_vindex_agrees;
        ] );
    ]
