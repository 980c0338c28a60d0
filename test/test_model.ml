(* Unit tests for the directory data model (Definition 2.1). *)

open Bounds_model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Attr / Oclass ---------------------------------------------------- *)

let test_attr_normalization () =
  check_str "lowercased" "mail" (Attr.to_string (Attr.of_string "MAIL"));
  check_str "trimmed" "cn" (Attr.to_string (Attr.of_string "  cn  "));
  check "equal ignoring case" true (Attr.equal (Attr.of_string "Mail") (Attr.of_string "maiL"));
  check "objectclass constant" true
    (Attr.equal Attr.object_class (Attr.of_string "objectClass"))

let test_attr_invalid () =
  check "empty rejected" true (Attr.of_string_opt "" = None);
  check "space rejected" true (Attr.of_string_opt "a b" = None);
  check "paren rejected" true (Attr.of_string_opt "a(b)" = None);
  Alcotest.check_raises "of_string raises"
    (Invalid_argument "Attr.of_string: invalid attribute name \"a b\"") (fun () ->
      ignore (Attr.of_string "a b"))

let test_oclass () =
  check_str "lowercased" "person" (Oclass.to_string (Oclass.of_string "Person"));
  check "top" true (Oclass.equal Oclass.top (Oclass.of_string "TOP"));
  check "invalid" true (Oclass.of_string_opt "a b" = None);
  check "underscore ok" true (Oclass.of_string_opt "a_b" <> None)

(* --- Intern ----------------------------------------------------------- *)

let test_intern_sharing () =
  (* two independent parses of the same name share one heap block; the
     copies start distinct, so [==] really observes the pool *)
  let raw1 = String.lowercase_ascii "MAIL" and raw2 = String.sub "mailx" 0 4 in
  check "copies distinct" false (raw1 == raw2);
  let a = Attr.to_string (Attr.of_string raw1)
  and b = Attr.to_string (Attr.of_string raw2) in
  check "attr canonical" true (a == b);
  (match (Value.intern (Value.String (String.sub "Parisx" 0 5)),
          Value.intern (Value.String (String.sub "xParis" 1 5)))
   with
  | Value.String x, Value.String y -> check "value canonical" true (x == y)
  | _ -> Alcotest.fail "intern changed the constructor");
  check "int passes through" true (Value.intern (Value.Int 3) = Value.Int 3);
  (* disabled: share is the identity, existing canonicals untouched *)
  let fresh = String.sub "mailz" 0 4 in
  Intern.with_disabled (fun () ->
      check "disabled share = identity" true (Intern.share Intern.attr fresh == fresh));
  check "canonical survives disable" true (Intern.share Intern.attr fresh == a)

(* --- Value / Atype / Typing ------------------------------------------- *)

let test_value_typing () =
  check "string in string" true (Value.has_type Atype.T_string (Value.String "x"));
  check "int not in string" false (Value.has_type Atype.T_string (Value.Int 3));
  check "int" true (Value.has_type Atype.T_int (Value.Int 3));
  check "bool" true (Value.has_type Atype.T_bool (Value.Bool false));
  check "dn" true (Value.has_type Atype.T_dn (Value.Dn "o=att"));
  check "telephone ok" true
    (Value.has_type Atype.T_telephone (Value.String "+1 (973) 360-8777"));
  check "telephone bad" false (Value.has_type Atype.T_telephone (Value.String "call me"));
  check "telephone empty bad" false (Value.has_type Atype.T_telephone (Value.String ""))

let test_value_parse () =
  let ok ty s v =
    match Value.parse ty s with
    | Ok v' -> check "parse ok" true (Value.equal v v')
    | Error m -> Alcotest.failf "parse %s failed: %s" s m
  in
  ok Atype.T_int "42" (Value.Int 42);
  ok Atype.T_int " -7 " (Value.Int (-7));
  ok Atype.T_bool "TRUE" (Value.Bool true);
  ok Atype.T_bool "false" (Value.Bool false);
  ok Atype.T_string "hello world" (Value.String "hello world");
  check "bad int" true (Result.is_error (Value.parse Atype.T_int "x"));
  check "bad bool" true (Result.is_error (Value.parse Atype.T_bool "yes"))

let test_value_roundtrip () =
  List.iter
    (fun (ty, v) ->
      match Value.parse ty (Value.to_string v) with
      | Ok v' -> check "roundtrip" true (Value.equal v v')
      | Error m -> Alcotest.fail m)
    [
      (Atype.T_int, Value.Int 123);
      (Atype.T_bool, Value.Bool true);
      (Atype.T_string, Value.String "abc def");
      (Atype.T_dn, Value.Dn "uid=x,o=y");
    ]

let test_typing_registry () =
  let t = Typing.default in
  check "default string" true (Typing.find t (Attr.of_string "anything") = Atype.T_string);
  check "objectclass declared" true (Typing.is_declared t Attr.object_class);
  let t = Typing.declare_exn (Attr.of_string "age") Atype.T_int t in
  check "declared int" true (Typing.find t (Attr.of_string "AGE") = Atype.T_int);
  check "same redeclare ok" true
    (Result.is_ok (Typing.declare (Attr.of_string "age") Atype.T_int t));
  check "conflicting redeclare" true
    (Result.is_error (Typing.declare (Attr.of_string "age") Atype.T_bool t))

(* --- Entry ------------------------------------------------------------- *)

let person = Oclass.of_string "person"
let top = Oclass.top
let name = Attr.of_string "name"
let mail = Attr.of_string "mail"

let mk_entry ?(id = 1) () =
  Entry.make ~id ~rdn:"uid=laks"
    ~classes:(Oclass.Set.of_list [ person; top ])
    [ (name, Value.String "laks"); (mail, Value.String "a@b"); (mail, Value.String "c@d") ]

let test_entry_basics () =
  let e = mk_entry () in
  check_int "id" 1 (Entry.id e);
  check_str "rdn" "uid=laks" (Entry.rdn e);
  check "class" true (Entry.has_class e person);
  check "no class" false (Entry.has_class e (Oclass.of_string "router"));
  check_int "mail values" 2 (List.length (Entry.values e mail));
  check_int "classes" 2 (Entry.n_classes e)

let test_entry_object_class_synthesized () =
  let e = mk_entry () in
  let ocs = Entry.values e Attr.object_class in
  check_int "two synthesized values" 2 (List.length ocs);
  check "person among them" true
    (List.exists (fun v -> Value.to_string v = "person") ocs);
  check "pair check" true (Entry.has_pair e Attr.object_class (Value.String "top"));
  (* |val(e)| counts objectClass pairs: 2 classes + name + 2 mails *)
  check_int "n_pairs" 5 (Entry.n_pairs e)

let test_entry_rejects_object_class_writes () =
  Alcotest.check_raises "make rejects"
    (Invalid_argument "Entry: the objectClass attribute is derived from the class set")
    (fun () ->
      ignore
        (Entry.make ~id:0
           ~classes:(Oclass.Set.singleton top)
           [ (Attr.object_class, Value.String "person") ]));
  let e = mk_entry () in
  Alcotest.check_raises "add_value rejects"
    (Invalid_argument "Entry: the objectClass attribute is derived from the class set")
    (fun () -> ignore (Entry.add_value Attr.object_class (Value.String "x") e))

let test_entry_set_semantics () =
  let e = mk_entry () in
  let e = Entry.add_value mail (Value.String "a@b") e in
  check_int "duplicate collapsed" 2 (List.length (Entry.values e mail));
  let e = Entry.remove_value mail (Value.String "a@b") e in
  check_int "removed" 1 (List.length (Entry.values e mail));
  let e = Entry.remove_value mail (Value.String "c@d") e in
  check "attribute gone" false (Entry.has_attr e mail)

let test_entry_empty_classes_rejected () =
  Alcotest.check_raises "empty classes"
    (Invalid_argument "Entry.make: an entry must belong to at least one object class")
    (fun () -> ignore (Entry.make ~id:0 ~classes:Oclass.Set.empty []))

(* --- Instance ----------------------------------------------------------- *)

let simple_entry id =
  Entry.make ~id ~rdn:(Printf.sprintf "id=%d" id) ~classes:(Oclass.Set.singleton top) []

(* 0 -> (1 -> 3, 4), (2); 5 is a second root *)
let sample () =
  Instance.empty
  |> Instance.add_root_exn (simple_entry 0)
  |> Instance.add_child_exn ~parent:0 (simple_entry 1)
  |> Instance.add_child_exn ~parent:0 (simple_entry 2)
  |> Instance.add_child_exn ~parent:1 (simple_entry 3)
  |> Instance.add_child_exn ~parent:1 (simple_entry 4)
  |> Instance.add_root_exn (simple_entry 5)

let test_instance_shape () =
  let t = sample () in
  check_int "size" 6 (Instance.size t);
  Alcotest.(check (list int)) "roots" [ 0; 5 ] (Instance.roots t);
  Alcotest.(check (list int)) "children of 0" [ 1; 2 ] (Instance.children t 0);
  Alcotest.(check (list int)) "children of 1" [ 3; 4 ] (Instance.children t 1);
  check "parent of 3" true (Instance.parent t 3 = Some 1);
  check "parent of root" true (Instance.parent t 0 = None);
  check "leaf" true (Instance.is_leaf t 4);
  check "not leaf" false (Instance.is_leaf t 1);
  check_int "depth of 3" 2 (Instance.depth t 3);
  Alcotest.(check (list int)) "ancestors of 3" [ 1; 0 ] (Instance.ancestors t 3);
  Alcotest.(check (list int)) "descendants of 0" [ 1; 3; 4; 2 ] (Instance.descendants t 0);
  check "ancestor test" true (Instance.is_strict_ancestor t ~anc:0 ~desc:4);
  check "not ancestor (self)" false (Instance.is_strict_ancestor t ~anc:3 ~desc:3);
  check "not ancestor (sibling)" false (Instance.is_strict_ancestor t ~anc:2 ~desc:1)

let test_instance_errors () =
  let t = sample () in
  check "duplicate id" true
    (Instance.add_root (simple_entry 3) t = Error (Instance.Duplicate_id 3));
  check "missing parent" true
    (Instance.add_child ~parent:99 (simple_entry 10) t
    = Error (Instance.No_such_entry 99));
  check "remove non-leaf" true
    (Instance.remove_leaf 1 t = Error (Instance.Not_a_leaf 1));
  check "remove missing" true
    (Instance.remove_leaf 42 t = Error (Instance.No_such_entry 42))

let test_instance_remove () =
  let t = sample () in
  let t = Result.get_ok (Instance.remove_leaf 4 t) in
  check_int "size after leaf removal" 5 (Instance.size t);
  Alcotest.(check (list int)) "children of 1" [ 3 ] (Instance.children t 1);
  let t = Result.get_ok (Instance.remove_subtree 1 t) in
  check_int "size after subtree removal" 3 (Instance.size t);
  check "3 gone" false (Instance.mem t 3);
  Alcotest.(check (list int)) "children of 0" [ 2 ] (Instance.children t 0);
  (* removing a root subtree *)
  let t = Result.get_ok (Instance.remove_subtree 0 t) in
  Alcotest.(check (list int)) "only root 5" [ 5 ] (Instance.roots t)

let test_instance_subtree_graft () =
  let t = sample () in
  let sub = Result.get_ok (Instance.subtree t 1) in
  check_int "subtree size" 3 (Instance.size sub);
  Alcotest.(check (list int)) "subtree roots" [ 1 ] (Instance.roots sub);
  Alcotest.(check (list int)) "subtree children" [ 3; 4 ] (Instance.children sub 1);
  let t' = Result.get_ok (Instance.remove_subtree 1 t) in
  let t'' = Result.get_ok (Instance.graft ~parent:(Some 2) sub t') in
  check "equal modulo position" true (Instance.size t'' = Instance.size t);
  check "moved" true (Instance.parent t'' 1 = Some 2);
  check "id clash detected" true
    (match Instance.graft ~parent:None sub t with
    | Error (Instance.Id_clash _) -> true
    | _ -> false)

let test_instance_dn () =
  let t =
    Instance.empty
    |> Instance.add_root_exn
         (Entry.make ~id:0 ~rdn:"o=att" ~classes:(Oclass.Set.singleton top) [])
    |> Instance.add_child_exn ~parent:0
         (Entry.make ~id:1 ~rdn:"ou=research" ~classes:(Oclass.Set.singleton top) [])
    |> Instance.add_child_exn ~parent:1
         (Entry.make ~id:2 ~rdn:"uid=laks" ~classes:(Oclass.Set.singleton top) [])
  in
  check_str "dn" "uid=laks,ou=research,o=att" (Instance.dn t 2);
  check "resolve" true (Instance.resolve_dn t "uid=laks,ou=research,o=att" = Some 2);
  check "resolve case-insensitive" true
    (Instance.resolve_dn t "UID=LAKS, OU=Research, O=ATT" = Some 2);
  check "resolve missing" true (Instance.resolve_dn t "uid=nobody,o=att" = None)

let test_instance_update_entry () =
  let t = sample () in
  let t =
    Result.get_ok
      (Instance.update_entry 2 (fun e -> Entry.add_class person e) t)
  in
  check "class added" true (Entry.has_class (Instance.entry t 2) person);
  Alcotest.check_raises "id change rejected"
    (Invalid_argument "Instance.update_entry: the update must preserve the entry id")
    (fun () -> ignore (Instance.update_entry 2 (fun e -> Entry.with_id 99 e) t))

let test_instance_equal_ignores_sibling_order () =
  let t1 =
    Instance.empty
    |> Instance.add_root_exn (simple_entry 0)
    |> Instance.add_child_exn ~parent:0 (simple_entry 1)
    |> Instance.add_child_exn ~parent:0 (simple_entry 2)
  in
  let t2 =
    Instance.empty
    |> Instance.add_root_exn (simple_entry 0)
    |> Instance.add_child_exn ~parent:0 (simple_entry 2)
    |> Instance.add_child_exn ~parent:0 (simple_entry 1)
  in
  check "equal" true (Instance.equal t1 t2)

let test_instance_preorder () =
  let t = sample () in
  let seen = ref [] in
  Instance.iter_preorder (fun ~depth e -> seen := (Entry.id e, depth) :: !seen) t;
  Alcotest.(check (list (pair int int)))
    "preorder with depths"
    [ (0, 0); (1, 1); (3, 2); (4, 2); (2, 1); (5, 0) ]
    (List.rev !seen)

(* --- Wf ----------------------------------------------------------------- *)

let test_wf () =
  let typing = Typing.declare_exn (Attr.of_string "age") Atype.T_int Typing.default in
  let good =
    Entry.make ~id:0 ~classes:(Oclass.Set.singleton top)
      [ (Attr.of_string "age", Value.Int 30) ]
  in
  let bad =
    Entry.make ~id:1 ~classes:(Oclass.Set.singleton top)
      [ (Attr.of_string "age", Value.String "thirty") ]
  in
  let t =
    Instance.empty |> Instance.add_root_exn good |> Instance.add_child_exn ~parent:0 bad
  in
  let viols = Wf.check typing t in
  check_int "one violation" 1 (List.length viols);
  check "well-formed fails" false (Wf.is_well_formed typing t);
  let v = List.hd viols in
  check_int "entry" 1 v.Wf.entry;
  check "expected type" true (v.Wf.expected = Atype.T_int)

(* --- properties ---------------------------------------------------------- *)

let arb_instance =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck.Gen.(int_bound 100_000)

let random_instance seed =
  Bounds_workload.Gen.random_forest ~seed ~size:(1 + (seed mod 50))
    ~mk_entry:(fun _rng id -> simple_entry id)
    ()

(* structural invariants of the forest *)
let prop_forest_invariants =
  QCheck.Test.make ~name:"forest invariants" ~count:200 arb_instance (fun seed ->
      let t = random_instance seed in
      let ids = Instance.ids t in
      List.length ids = Instance.size t
      && List.for_all
           (fun id ->
             (* parent/children agree *)
             List.for_all (fun ch -> Instance.parent t ch = Some id) (Instance.children t id)
             &&
             match Instance.parent t id with
             | None -> List.mem id (Instance.roots t)
             | Some p -> List.mem id (Instance.children t p))
           ids
      && (* every entry reaches a root: ancestors are finite and acyclic *)
      List.for_all
        (fun id ->
          let anc = Instance.ancestors t id in
          List.length (List.sort_uniq compare anc) = List.length anc
          && not (List.mem id anc))
        ids)

(* descendants and is_strict_ancestor agree *)
let prop_descendants_vs_ancestor_test =
  QCheck.Test.make ~name:"descendants = strict-ancestor inverse" ~count:100
    arb_instance (fun seed ->
      let t = random_instance seed in
      let ids = Instance.ids t in
      List.for_all
        (fun anc ->
          let ds = Instance.descendants t anc in
          List.for_all (fun d -> Instance.is_strict_ancestor t ~anc ~desc:d) ds
          && List.for_all
               (fun other ->
                 List.mem other ds = Instance.is_strict_ancestor t ~anc ~desc:other)
               ids)
        ids)

(* subtree extraction + removal + graft restores the instance *)
let prop_subtree_remove_graft_identity =
  QCheck.Test.make ~name:"subtree/remove/graft identity" ~count:200 arb_instance
    (fun seed ->
      let t = random_instance seed in
      let ids = Instance.ids t in
      let victim = List.nth ids (seed * 7 mod List.length ids) in
      let parent = Instance.parent t victim in
      let sub = Result.get_ok (Instance.subtree t victim) in
      let without = Result.get_ok (Instance.remove_subtree victim t) in
      let back = Result.get_ok (Instance.graft ~parent sub without) in
      Instance.equal back t
      && Instance.size sub + Instance.size without = Instance.size t)

(* preorder visits every entry exactly once, parents before children *)
let prop_preorder_complete =
  QCheck.Test.make ~name:"preorder completeness & order" ~count:100 arb_instance
    (fun seed ->
      let t = random_instance seed in
      let seen = ref [] in
      Instance.iter_preorder (fun ~depth:_ e -> seen := Entry.id e :: !seen) t;
      let order = List.rev !seen in
      List.sort compare order = Instance.ids t
      && List.for_all
           (fun id ->
             match Instance.parent t id with
             | None -> true
             | Some p ->
                 let pos x =
                   let rec go i = function
                     | [] -> -1
                     | y :: r -> if y = x then i else go (i + 1) r
                   in
                   go 0 order
                 in
                 pos p < pos id)
           (Instance.ids t))

(* The listing renderer [Instance.add_dns] against [Instance.dn] and
   against an independent rendering from [ancestors] (and
   [iter_preorder_dn] against the same rendering in [iter_preorder]'s
   order), on forests built to stress the sharing:
   few distinct rdns (siblings and cousins repeat them), several roots,
   chains up to depth 20, ids listed in any order with repeats, and
   versions after [remove_leaf] (the older version must still render
   what the newer one lost). *)
let reference_dn t id =
  String.concat ","
    (List.map (fun i -> Entry.rdn (Instance.entry t i)) (id :: Instance.ancestors t id))

let arb_dn_case =
  let open QCheck.Gen in
  let rdns = [| "o=acme"; "ou=a"; "ou=b"; "cn=x"; "uid=u"; "ou=A" |] in
  let forest =
    int_range 1 120 >>= fun n ->
    list_repeat n (triple (int_bound 9) nat (int_bound (Array.length rdns - 1)))
    >|= fun steps ->
    (* step i: a root (one in ten), else a child of an earlier entry,
       the most recent ones likelier, so chains grow deep *)
    let depth = Hashtbl.create n in
    List.fold_left
      (fun (t, i) (root, back, r) ->
        let e =
          Entry.make ~id:i ~rdn:rdns.(r) ~classes:(Oclass.Set.singleton top) []
        in
        let parent =
          if i = 0 || root = 0 then None
          else
            let p = i - 1 - (back mod min i 4) in
            if Hashtbl.find depth p >= 20 then None else Some p
        in
        Hashtbl.replace depth i
          (match parent with None -> 0 | Some p -> Hashtbl.find depth p + 1);
        (Result.get_ok (Instance.add ~parent e t), i + 1))
      (Instance.empty, 0) steps
    |> fst
  in
  QCheck.make
    ~print:(fun (t, ids, removals) ->
      Printf.sprintf "size=%d ids=[%s] removals=%d" (Instance.size t)
        (String.concat ";" (List.map string_of_int ids))
        removals)
    ( forest >>= fun t ->
      let n = Instance.size t in
      triple (return t) (list_size (int_bound 60) (int_bound (n - 1))) (int_bound 10) )

(* [add_dns] appends after what the buffer already holds: a newline and
   a DN per id. *)
let listing t ids =
  let o = Outbuf.create 1 in
  Outbuf.add_string o "head";
  ignore (Instance.add_dns t o ids);
  Outbuf.contents o

let lines dns = "head" ^ String.concat "" (List.map (fun dn -> "\n" ^ dn) dns)

(* The same listing rendered [limit] bytes at a time: each call starts
   an empty buffer with the ids the last one left; every chunk but a
   lone first DN stays within [limit], and the chunks join up to the
   whole listing. *)
let chunked t ~limit ids =
  let rec go acc ids =
    let o = Outbuf.create 1 in
    let left = Instance.add_dns ~limit t o ids in
    let chunk = Outbuf.contents o in
    let ok = String.length chunk <= limit || String.index_from_opt chunk 1 '\n' = None in
    if not ok then None
    else if left = [] then Some (String.concat "" (List.rev (chunk :: acc)))
    else if List.length left >= List.length ids then None
    else go (chunk :: acc) left
  in
  go [] ids

let prop_dns_render =
  QCheck.Test.make ~name:"dns = map dn, any order" ~count:300 arb_dn_case
    (fun (t, ids, removals) ->
      let agrees t ids =
        let got = listing t ids in
        got = lines (List.map (Instance.dn t) ids)
        && got = lines (List.map (reference_dn t) ids)
        && List.for_all
             (fun limit -> Option.map (( ^ ) "head") (chunked t ~limit ids) = Some got)
             [ 1; 17; 64; 400 ]
      in
      (* remove up to [removals] leaves, one version at a time *)
      let rec shrink t k =
        if k = 0 then t
        else
          match List.find_opt (Instance.is_leaf t) (List.rev (Instance.ids t)) with
          | None -> t
          | Some leaf -> shrink (Result.get_ok (Instance.remove_leaf leaf t)) (k - 1)
      in
      let t' = shrink t removals in
      let live = List.filter (Instance.mem t') ids in
      let gone = List.filter (fun id -> not (Instance.mem t' id)) ids in
      let raises f = match f () with _ -> false | exception Not_found -> true in
      let walked t =
        let seen = ref [] in
        Instance.iter_preorder_dn (fun ~dn e -> seen := (Entry.id e, dn) :: !seen) t;
        let order = ref [] in
        Instance.iter_preorder (fun ~depth:_ e -> order := Entry.id e :: !order) t;
        List.rev !seen = List.rev_map (fun id -> (id, reference_dn t id)) !order
      in
      agrees t ids && agrees t' live
      && agrees t (Instance.ids t)
      && walked t && walked t'
      && List.for_all
           (fun id ->
             raises (fun () -> Instance.dn t' id)
             && raises (fun () -> listing t' (live @ [ id ])))
           gone
      && raises (fun () -> listing t [ Instance.fresh_id t ]))

(* pool laws: share is canonical and idempotent, ids are stable and
   invertible, find_id never pollutes *)
let prop_intern_laws =
  QCheck.Test.make ~name:"intern pool laws" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 12) Gen.printable)
    (fun s ->
      let pool = Intern.rdn in
      let c = Intern.share pool s in
      let c' = Intern.share pool (String.sub s 0 (String.length s)) in
      let i = Intern.id pool s in
      String.equal c s
      && c == c' (* canonical: every equal string maps to one block *)
      && Intern.share pool c == c (* idempotent on the canonical copy *)
      && i = Intern.id pool c (* id agrees however the string is spelled *)
      && Intern.find_id pool s = Some i
      && Intern.get pool i == c (* get inverts id, physically *)
      && Intern.size pool > i)

let () =
  Alcotest.run "model"
    [
      ( "attr-oclass",
        [
          Alcotest.test_case "attr normalization" `Quick test_attr_normalization;
          Alcotest.test_case "attr invalid" `Quick test_attr_invalid;
          Alcotest.test_case "oclass" `Quick test_oclass;
          Alcotest.test_case "intern sharing" `Quick test_intern_sharing;
        ] );
      ( "values",
        [
          Alcotest.test_case "typing" `Quick test_value_typing;
          Alcotest.test_case "parse" `Quick test_value_parse;
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "registry" `Quick test_typing_registry;
        ] );
      ( "entry",
        [
          Alcotest.test_case "basics" `Quick test_entry_basics;
          Alcotest.test_case "objectClass synthesized" `Quick
            test_entry_object_class_synthesized;
          Alcotest.test_case "objectClass writes rejected" `Quick
            test_entry_rejects_object_class_writes;
          Alcotest.test_case "set semantics" `Quick test_entry_set_semantics;
          Alcotest.test_case "empty classes rejected" `Quick
            test_entry_empty_classes_rejected;
        ] );
      ( "instance",
        [
          Alcotest.test_case "shape" `Quick test_instance_shape;
          Alcotest.test_case "errors" `Quick test_instance_errors;
          Alcotest.test_case "remove" `Quick test_instance_remove;
          Alcotest.test_case "subtree & graft" `Quick test_instance_subtree_graft;
          Alcotest.test_case "dn" `Quick test_instance_dn;
          Alcotest.test_case "update entry" `Quick test_instance_update_entry;
          Alcotest.test_case "sibling order" `Quick
            test_instance_equal_ignores_sibling_order;
          Alcotest.test_case "preorder" `Quick test_instance_preorder;
        ] );
      ("wf", [ Alcotest.test_case "typing check" `Quick test_wf ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_forest_invariants;
          QCheck_alcotest.to_alcotest prop_descendants_vs_ancestor_test;
          QCheck_alcotest.to_alcotest prop_subtree_remove_graft_identity;
          QCheck_alcotest.to_alcotest prop_preorder_complete;
          QCheck_alcotest.to_alcotest prop_dns_render;
          QCheck_alcotest.to_alcotest prop_intern_laws;
        ] );
    ]
