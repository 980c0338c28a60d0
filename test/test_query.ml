(* Tests for the hierarchical query engine: bitsets, filters, parsers, and
   the linear evaluator checked against the naive reference evaluator. *)

open Bounds_model
open Bounds_query

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ids = Alcotest.(check (list int))

(* --- Bitset ------------------------------------------------------------ *)

let test_bitset_basics () =
  let s = Bitset.create 20 in
  check "empty" true (Bitset.is_empty s);
  let s = Bitset.add (Bitset.add s 3) 17 in
  check "mem 3" true (Bitset.mem s 3);
  check "mem 17" true (Bitset.mem s 17);
  check "not mem 4" false (Bitset.mem s 4);
  check_int "cardinal" 2 (Bitset.cardinal s);
  check_ids "elements" [ 3; 17 ] (Bitset.elements s);
  let s = Bitset.remove s 3 in
  check_ids "after remove" [ 17 ] (Bitset.elements s)

let test_bitset_algebra () =
  let a = Bitset.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5 ] in
  check_ids "union" [ 1; 3; 4; 5; 7 ] (Bitset.elements (Bitset.union a b));
  check_ids "inter" [ 3; 5 ] (Bitset.elements (Bitset.inter a b));
  check_ids "diff" [ 1; 7 ] (Bitset.elements (Bitset.diff a b));
  check_ids "complement" [ 0; 2; 4; 6; 8; 9 ] (Bitset.elements (Bitset.complement a));
  check "subset" true (Bitset.subset (Bitset.of_list 10 [ 3; 5 ]) a);
  check "not subset" false (Bitset.subset b a);
  check "choose" true (Bitset.choose a = Some 1);
  check "choose empty" true (Bitset.choose (Bitset.create 10) = None)

let test_bitset_full_and_edges () =
  (* n not a multiple of 8: padding bits must stay clear *)
  let f = Bitset.full 13 in
  check_int "full cardinal" 13 (Bitset.cardinal f);
  check "complement of full is empty" true (Bitset.is_empty (Bitset.complement f));
  let z = Bitset.full 0 in
  check_int "full 0" 0 (Bitset.cardinal z);
  List.iter
    (fun (name, op) ->
      check (name ^ ": size mismatch raises") true
        (try
           op (Bitset.create 5) (Bitset.create 6);
           false
         with Invalid_argument _ -> true))
    [
      ("union", fun a b -> ignore (Bitset.union a b));
      ("union_into", fun into src -> Bitset.union_into ~into src);
      ("inter_into", fun into src -> Bitset.inter_into ~into src);
    ];
  check "out of range raises" true
    (try
       ignore (Bitset.mem (Bitset.create 5) 5);
       false
     with Invalid_argument _ -> true)

let test_union_into () =
  List.iter
    (fun n ->
      let a = Bitset.of_list n (List.filter (fun i -> i < n) [ 0; 7; 8; 63; 64; 65 ]) in
      let b = Bitset.of_list n (List.filter (fun i -> i < n) [ 1; 7; 62; 64; n - 1 ]) in
      let expect = Bitset.elements (Bitset.union a b) in
      let into = Bitset.union a (Bitset.create n) in
      Bitset.union_into ~into b;
      check_ids (Printf.sprintf "union_into n=%d" n) expect (Bitset.elements into))
    [ 2; 13; 64; 65; 100; 129 ];
  check "size mismatch raises" true
    (try
       Bitset.union_into ~into:(Bitset.create 8) (Bitset.create 9);
       false
     with Invalid_argument _ -> true)

let test_iter_range () =
  let members = [ 0; 3; 64; 65; 127; 128; 255; 256; 299 ] in
  let s = Bitset.of_list 300 members in
  let collect ~lo ~hi =
    let acc = ref [] in
    Bitset.iter_range (fun i -> acc := i :: !acc) s ~lo ~hi;
    List.rev !acc
  in
  check_ids "full range" members (collect ~lo:0 ~hi:300);
  check_ids "sub range" [ 64; 65; 127 ] (collect ~lo:4 ~hi:128);
  check_ids "clamped" members (collect ~lo:(-5) ~hi:1000);
  check_ids "empty range" [] (collect ~lo:10 ~hi:10);
  check_ids "mid-byte bounds" [ 65; 127; 128 ] (collect ~lo:65 ~hi:200)

(* --- Filters ------------------------------------------------------------ *)

let a = Attr.of_string
let person = Oclass.of_string "person"

let entry =
  Entry.make ~id:0
    ~classes:(Oclass.Set.of_list [ person; Oclass.top ])
    [
      (a "name", Value.String "Laks Lakshmanan");
      (a "age", Value.Int 42);
      (a "mail", Value.String "laks@cs.concordia.ca");
      (a "mail", Value.String "laks@cse.iitb.ernet.in");
    ]

let test_filter_matching () =
  let m f = Filter.matches f entry in
  check "class eq" true (m (Filter.class_eq person));
  check "class eq case" true (m (Filter.Eq (Attr.object_class, "PERSON")));
  check "class neq" false (m (Filter.class_eq (Oclass.of_string "router")));
  check "eq string ci" true (m (Filter.Eq (a "name", "laks lakshmanan")));
  check "present" true (m (Filter.Present (a "mail")));
  check "absent" false (m (Filter.Present (a "phone")));
  check "ge numeric" true (m (Filter.Ge (a "age", "40")));
  check "ge numeric false" false (m (Filter.Ge (a "age", "43")));
  check "le numeric" true (m (Filter.Le (a "age", "42")));
  check "ge lexicographic" true (m (Filter.Ge (a "name", "laks")));
  check "and" true
    (m (Filter.And [ Filter.Present (a "mail"); Filter.Ge (a "age", "1") ]));
  check "and empty is true" true (m (Filter.And []));
  check "or empty is false" false (m (Filter.Or []));
  check "not" true (m (Filter.Not (Filter.Present (a "phone"))))

let test_filter_substring () =
  let m f = Filter.matches f entry in
  let sub ?initial ?(any = []) ?final () = { Filter.initial; any; final } in
  check "initial" true (m (Filter.Substr (a "mail", sub ~initial:"laks@" ())));
  check "final" true (m (Filter.Substr (a "mail", sub ~final:".ca" ())));
  check "any" true (m (Filter.Substr (a "mail", sub ~any:[ "cs" ] ())));
  check "all three" true
    (m (Filter.Substr (a "mail", sub ~initial:"laks" ~any:[ "cse" ] ~final:"in" ())));
  check "ordered anys" true
    (m (Filter.Substr (a "name", sub ~any:[ "Laks"; "Laks" ] ())));
  check "ordered anys fail" false
    (m (Filter.Substr (a "mail", sub ~any:[ "iitb"; "cse" ] ())));
  check "case-insensitive" true (m (Filter.Substr (a "name", sub ~initial:"LAKS" ())))

let test_filter_parser () =
  let p s = Filter_parser.parse_exn s in
  check "simple eq" true
    (Filter.equal (p "(objectClass=person)") (Filter.class_eq person));
  check "and" true
    (Filter.equal
       (p "(&(objectClass=person)(mail=*))")
       (Filter.And [ Filter.class_eq person; Filter.Present (a "mail") ]));
  check "or-not" true
    (Filter.equal
       (p "(|(!(a=1))(b>=2))")
       (Filter.Or [ Filter.Not (Filter.Eq (a "a", "1")); Filter.Ge (a "b", "2") ]));
  check "substring" true
    (Filter.equal
       (p "(mail=laks*ca)")
       (Filter.Substr (a "mail", { initial = Some "laks"; any = []; final = Some "ca" })));
  check "escaped star" true (Filter.equal (p {|(x=a\*b)|}) (Filter.Eq (a "x", "a*b")));
  check "whitespace tolerated" true
    (Filter.equal
       (p "( & (a=1) (b=2) )")
       (Filter.And [ Filter.Eq (a "a", "1"); Filter.Eq (a "b", "2") ]));
  check "error: unbalanced" true (Result.is_error (Filter_parser.parse "(a=1"));
  check "error: trailing" true (Result.is_error (Filter_parser.parse "(a=1)x"));
  check "error: star in ge" true (Result.is_error (Filter_parser.parse "(a>=1*2)"))

let test_filter_parser_escapes () =
  let p s = Filter_parser.parse_exn s in
  (* RFC 2254 hex escapes name bytes *)
  check "hex star" true (Filter.equal (p {|(x=a\2ab)|}) (Filter.Eq (a "x", "a*b")));
  check "hex parens" true
    (Filter.equal (p {|(x=\28\29)|}) (Filter.Eq (a "x", "()")));
  check "hex backslash" true
    (Filter.equal (p {|(x=\5c)|}) (Filter.Eq (a "x", "\\")));
  check "hex nul" true (Filter.equal (p {|(x=\00)|}) (Filter.Eq (a "x", "\000")));
  (* backslash before a non-hex-pair still escapes one character *)
  check "legacy single-char escape" true
    (Filter.equal (p {|(x=a\zb)|}) (Filter.Eq (a "x", "azb")));
  (* a pattern of only stars is plain presence, not a degenerate Substr *)
  check "double star is presence" true
    (Filter.equal (p "(x=**)") (Filter.Present (a "x")));
  check "triple star is presence" true
    (Filter.equal (p "(x=***)") (Filter.Present (a "x")));
  (* the printer emits hex escapes, so specials round-trip *)
  List.iter
    (fun v ->
      let f = Filter.Eq (a "x", v) in
      check
        (Printf.sprintf "special %S roundtrips" v)
        true
        (Filter.equal f (p (Filter.to_string f))))
    [ "*"; "()"; "\\2a"; "a*b(c)\\"; "\000" ]

let test_filter_roundtrip () =
  List.iter
    (fun s ->
      let f = Filter_parser.parse_exn s in
      let f' = Filter_parser.parse_exn (Filter.to_string f) in
      check ("roundtrip " ^ s) true (Filter.equal f f'))
    [
      "(objectClass=person)";
      "(mail=*)";
      "(&(a=1)(|(b=2)(c=3)))";
      "(!(x<=10))";
      "(mail=a*b*c)";
      {|(x=p\(q\)r)|};
    ]

(* --- Query parser / printer -------------------------------------------- *)

let test_query_parser () =
  let q =
    Query_parser.parse_exn
      {|(minus (select "(objectClass=orgGroup)") (chi d (select "(objectClass=orgGroup)") (select "(objectClass=person)")))|}
  in
  (match q with
  | Query.Minus (Query.Select _, Query.Chi (Query.Descendant, _, _)) -> ()
  | _ -> Alcotest.fail "unexpected shape");
  check_int "size" 5 (Query.size q);
  (* bare filter shorthand *)
  let q2 = Query_parser.parse_exn "(chi c (objectClass=person) (objectClass=top))" in
  (match q2 with
  | Query.Chi (Query.Child, Query.Select _, Query.Select _) -> ()
  | _ -> Alcotest.fail "unexpected shape 2");
  check "error" true (Result.is_error (Query_parser.parse "(chi q (a=1) (b=2))"))

let test_query_roundtrip () =
  List.iter
    (fun s ->
      let q = Query_parser.parse_exn s in
      let q' = Query_parser.parse_exn (Query.to_string q) in
      check ("roundtrip " ^ s) true (Query.equal q q'))
    [
      "(objectClass=person)";
      "(minus (a=1) (b=2))";
      "(union (inter (a=1) (b=2)) (chi a (c=3) (d=4)))";
      "(chi p (select \"(&(a=1)(b=2))\") (x=*))";
    ]

(* --- Evaluation ---------------------------------------------------------- *)

(* A small fixed forest:
     0:org -> 1:unit -> 3:person, 4:person
            -> 2:person
     5:org (second root, person-less) *)
let mk id cls =
  Entry.make ~id ~classes:(Oclass.Set.of_list [ Oclass.top; Oclass.of_string cls ]) []

let forest () =
  Instance.empty
  |> Instance.add_root_exn (mk 0 "org")
  |> Instance.add_child_exn ~parent:0 (mk 1 "unit")
  |> Instance.add_child_exn ~parent:0 (mk 2 "person")
  |> Instance.add_child_exn ~parent:1 (mk 3 "person")
  |> Instance.add_child_exn ~parent:1 (mk 4 "person")
  |> Instance.add_root_exn (mk 5 "org")

let sel c = Query.select_class (Oclass.of_string c)

let eval_ids q =
  let inst = forest () in
  Eval.eval_ids (Index.create inst) q

let test_eval_select () =
  check_ids "persons" [ 2; 3; 4 ] (List.sort compare (eval_ids (sel "person")));
  check_ids "orgs" [ 0; 5 ] (List.sort compare (eval_ids (sel "org")));
  check_ids "top = everything" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare (eval_ids (sel "top")))

let test_eval_chi () =
  let sorted q = List.sort compare (eval_ids q) in
  check_ids "orgs with person child" [ 0 ]
    (sorted (Query.Chi (Query.Child, sel "org", sel "person")));
  check_ids "orgs with person descendant" [ 0 ]
    (sorted (Query.Chi (Query.Descendant, sel "org", sel "person")));
  check_ids "persons with unit parent" [ 3; 4 ]
    (sorted (Query.Chi (Query.Parent, sel "person", sel "unit")));
  check_ids "persons with org ancestor" [ 2; 3; 4 ]
    (sorted (Query.Chi (Query.Ancestor, sel "person", sel "org")));
  check_ids "units with org parent" [ 1 ]
    (sorted (Query.Chi (Query.Parent, sel "unit", sel "org")));
  check_ids "no org has org descendant" []
    (sorted (Query.Chi (Query.Descendant, sel "org", sel "org")))

let test_eval_minus () =
  (* the Q1 of Section 3.2: orgs without a person descendant *)
  let q1 =
    Query.Minus (sel "org", Query.Chi (Query.Descendant, sel "org", sel "person"))
  in
  check_ids "org 5 has no person" [ 5 ] (eval_ids q1);
  check "is_empty false" false (Eval.is_empty (Index.create (forest ())) q1)

let test_eval_empty_instance () =
  let ix = Index.create Instance.empty in
  check "empty select" true (Eval.is_empty ix (sel "person"));
  check "empty chi" true
    (Eval.is_empty ix (Query.Chi (Query.Descendant, sel "a", sel "b")))

let test_vindex_agrees () =
  let inst = forest () in
  let ix = Index.create inst in
  let vx = Vindex.create ix in
  List.iter
    (fun q ->
      check "vindex = scan" true
        (Bitset.equal (Eval.eval ix q) (Eval.eval ~vindex:vx ix q)))
    [
      sel "person";
      Query.Select (Filter.Not (Filter.class_eq person));
      Query.Select (Filter.And [ Filter.class_eq person; Filter.Present (a "x") ]);
      Query.Chi (Query.Descendant, sel "org", sel "person");
      Query.Select (Filter.Present Attr.object_class);
    ]

(* The neighbourhood walk against the χ sweep it stands in for: with q1
   every rank, [chi ix ax q1 frame] is exactly N_ax(frame).  Frames sit
   on bitset word (64) and chunk (256) boundaries and at the last rank;
   an Ancestor frame member lies inside an earlier member's interval;
   two Descendant chains meet at a shared ancestor; the empty frame and
   the full one.  Checked on a fresh index and on an [Index.apply]
   version, whose walks run before any sweep materializes its mirror;
   the budget admits exactly |N| ranks and refuses |N| - 1. *)
let test_neighbourhood_boundaries () =
  let inst =
    Bounds_workload.Gen.random_forest ~seed:11 ~size:300 ~mk_entry:(fun _ id -> mk id "a") ()
  in
  let v0 = Index.create inst in
  let leaf = List.find (Instance.is_leaf inst) (Instance.ids inst) in
  let v1 =
    Index.apply
      [
        Update.Insert { parent = Some 0; entry = mk 300 "a" };
        Update.Insert { parent = Some 300; entry = mk 301 "a" };
        Update.Insert { parent = None; entry = mk 302 "a" };
        Update.Delete leaf;
      ]
      v0
  in
  let axes = [ Query.Child; Query.Parent; Query.Descendant; Query.Ancestor ] in
  let cases ix =
    let n = Index.n ix in
    let children r =
      List.rev (Eval.fold_siblings List.cons ix ~lo:(r + 1) ~hi:(Index.extent_of_rank ix r) [])
    in
    let inner = List.find (fun r -> Index.extent_of_rank ix r > r + 1) (List.init n Fun.id) in
    let fork = List.find (fun r -> List.length (children r) >= 2) (List.init n Fun.id) in
    let c1, c2 = match children fork with c1 :: c2 :: _ -> (c1, c2) | _ -> assert false in
    [
      ("63", [ 63 ]); ("64", [ 64 ]); ("63+64", [ 63; 64 ]);
      ("255", [ 255 ]); ("256", [ 256 ]); ("255+256", [ 255; 256 ]);
      ("n-1", [ n - 1 ]);
      ("nested", [ inner; inner + 1; Index.extent_of_rank ix inner ]);
      ("meeting", [ Index.extent_of_rank ix c1; Index.extent_of_rank ix c2 ]);
      ("empty", []);
      ("full", List.init n Fun.id);
    ]
    |> List.concat_map (fun (name, ranks) ->
           List.map (fun ax -> (name, ax, Bitset.of_list n ranks)) axes)
  in
  List.iter
    (fun (version, ix) ->
      let n = Index.n ix in
      let walked =
        List.map
          (fun (name, ax, frame) -> (name, ax, frame, Eval.neighbourhood ix ax frame ~budget:n))
          (cases ix)
      in
      List.iter
        (fun (name, ax, frame, walk) ->
          let what = Printf.sprintf "%s, %s, chi %s" version name (Query.axis_to_string ax) in
          let want = Eval.chi ix ax (Bitset.full n) frame in
          check (what ^ ": walk = sweep") true
            (match walk with Some nb -> Bitset.equal nb want | None -> false);
          let k = Bitset.count want in
          check (what ^ ": budget |N|") true
            (Eval.neighbourhood ix ax frame ~budget:k <> None);
          if k > 0 then
            check (what ^ ": budget |N|-1") true
              (Eval.neighbourhood ix ax frame ~budget:(k - 1) = None))
        walked)
    [ ("applied", v1); ("fresh", v0) ]

(* --- planner: range / trigram / memo unit tests -------------------------- *)

(* Duplicate values, numeric/non-numeric mix on one attribute ("9" < "10"
   numerically but "10" < "9" lexicographically, and "2a" parses as
   neither), and an attribute nobody carries. *)
let rich_forest () =
  let e id cls pairs =
    Entry.make ~id
      ~classes:(Oclass.Set.of_list [ Oclass.top; Oclass.of_string cls ])
      (List.map (fun (n, v) -> (a n, Value.String v)) pairs)
  in
  Instance.empty
  |> Instance.add_root_exn (e 0 "org" [ ("ou", "root") ])
  |> Instance.add_child_exn ~parent:0
       (e 1 "person" [ ("uid", "u1"); ("age", "9"); ("name", "name of u1") ])
  |> Instance.add_child_exn ~parent:0
       (e 2 "person" [ ("uid", "u1"); ("age", "10"); ("name", "name of u2") ])
  |> Instance.add_child_exn ~parent:0
       (e 3 "person" [ ("uid", "u2"); ("age", "2a") ])
  |> Instance.add_child_exn ~parent:3 (e 4 "person" [ ("uid", "u3") ])

let plan_ids inst q =
  let vx = Vindex.create (Index.create inst) in
  List.sort compare (Plan.eval_ids vx q)

let test_plan_range_edges () =
  let inst = rich_forest () in
  let naive q = List.sort compare (Naive_eval.eval inst q) in
  let agree name q = check name true (plan_ids inst q = naive q) in
  agree "range over missing attribute" (Query.Select (Filter.Ge (a "phone", "0")));
  agree "le over missing attribute" (Query.Select (Filter.Le (a "phone", "z")));
  agree "numeric ge crosses digit count" (Query.Select (Filter.Ge (a "age", "9")));
  agree "numeric le crosses digit count" (Query.Select (Filter.Le (a "age", "9")));
  agree "non-numeric bound over mixed values"
    (Query.Select (Filter.Ge (a "age", "1a")));
  agree "eq with duplicate values" (Query.Select (Filter.Eq (a "uid", "u1")));
  agree "range with duplicate values" (Query.Select (Filter.Ge (a "uid", "u1")));
  agree "range on empty instance bound" (Query.Select (Filter.Le (a "uid", "")));
  (* a concrete expectation, not just agreement: ordering is numeric when
     both sides parse, so 9 <= age <= 10 catches "9" and "10" but not "2a" *)
  check_ids "9 <= age <= 10 is numeric" [ 1; 2 ]
    (plan_ids inst
       (Query.Select (Filter.And [ Filter.Ge (a "age", "9"); Filter.Le (a "age", "10") ])))

let test_plan_substr_edges () =
  let inst = rich_forest () in
  let naive q = List.sort compare (Naive_eval.eval inst q) in
  let agree name q = check name true (plan_ids inst q = naive q) in
  let sub ?initial ?(any = []) ?final () = { Filter.initial; any; final } in
  (* fragments >= 3 chars go through the trigram index *)
  agree "trigram prefix" (Query.Select (Filter.Substr (a "name", sub ~initial:"name of" ())));
  agree "trigram any" (Query.Select (Filter.Substr (a "name", sub ~any:[ "of u1" ] ())));
  (* short fragments have no trigrams and fall back to presence candidates *)
  agree "short fragment" (Query.Select (Filter.Substr (a "uid", sub ~any:[ "u" ] ())));
  (* degenerate all-star patterns: no fragments at all *)
  agree "all stars" (Query.Select (Filter.Substr (a "uid", sub ())));
  agree "empty fragments" (Query.Select (Filter.Substr (a "uid", sub ~initial:"" ~any:[ "" ] ~final:"" ())));
  agree "substr over missing attribute"
    (Query.Select (Filter.Substr (a "phone", sub ~any:[ "555" ] ())))

let test_plan_explain_shapes () =
  let inst = rich_forest () in
  let vx = Vindex.create (Index.create inst) in
  let has_sub needle lines =
    List.exists
      (fun l ->
        let nl = String.length needle and ll = String.length l in
        let rec go i = i + nl <= ll && (String.sub l i nl = needle || go (i + 1)) in
        go 0)
      lines
  in
  (* an expensive Not lands in the verify tail, not in an O(n) complement *)
  let p1 =
    Plan.plan vx
      (Query.Select
         (Filter.And
            [
              Filter.Eq (a "uid", "u1");
              Filter.Not
                (Filter.Substr (a "uid", { Filter.initial = None; any = [ "u" ]; final = None }));
            ]))
  in
  ignore (Plan.exec p1);
  check "not verified per candidate" true (has_sub "verify" (Plan.explain_lines p1));
  (* an empty left operand skips the right one, visible in the explain *)
  let p2 = Plan.plan vx (Query.Inter (sel "nosuchclass", sel "person")) in
  ignore (Plan.exec p2);
  check "early exit marks skipped" true (has_sub "skipped" (Plan.explain_lines p2));
  (* χ, ∩ and − say how they met their tested operand: per candidate on
     k of them, with the operand [verified], or by a sweep over the built
     sets.  300 "a" entries make (objectClass=a) dear enough to build
     that one "b" entry's parent is tested instead. *)
  let inst =
    Bounds_workload.Gen.random_forest ~seed:3 ~size:300
      ~mk_entry:(fun _ id -> mk id (if id = 150 then "b" else "a"))
      ()
  in
  let vx = Vindex.create (Index.create inst) in
  let explain q =
    let p = Plan.plan vx q in
    ignore (Plan.exec p);
    Plan.explain_lines p
  in
  let framed = Query.Chi (Query.Child, sel "a", sel "b") in
  let l = explain (Query.Minus (Query.Inter (framed, sel "a"), sel "a")) in
  check "chi verifies its neighbourhood" true (has_sub "chi c verify 1 " l);
  check "inter verifies its left operand's members" true (has_sub "inter verify 1 " l);
  check "minus verifies too" true (has_sub "minus verify 1 " l);
  check "tested operands show verified" true (has_sub "actual=verified" l);
  let l = explain (Query.Minus (Query.Chi (Query.Child, sel "a", sel "a"), sel "a")) in
  check "a dense frame sweeps" true (has_sub "chi c sweep" l);
  check "a large left operand sweeps" true (has_sub "minus sweep" l);
  check "nothing verified" false (has_sub "verified" l)

let test_plan_memo () =
  let inst = forest () in
  let vx = Vindex.create (Index.create inst) in
  let m = Plan.memo_create vx in
  let q =
    Query.Minus (sel "org", Query.Chi (Query.Descendant, sel "org", sel "person"))
  in
  (* every distinct subquery: q, its χ, [sel "org"] (named twice) and
     [sel "person"] *)
  Plan.prewarm m [ q ];
  check "every subquery cached" true (Plan.memo_size m = 4);
  let fresh = Plan.memo_eval (Plan.memo_create vx) q in
  check "memo = plain planner" true (Bitset.equal (Plan.memo_eval m q) (Plan.eval vx q));
  check "fresh memo = plain planner" true (Bitset.equal fresh (Plan.eval vx q));
  let other = Query.Chi (Query.Child, sel "person", sel "org") in
  check "an uncached read" true (Bitset.equal (Plan.memo_eval m other) (Plan.eval vx other));
  check "reads write nothing" true (Plan.memo_size m = 4);
  Plan.prewarm m [ q ];
  check "a second prewarm adds nothing" true (Plan.memo_size m = 4)

(* --- property: linear evaluator ≡ naive reference ----------------------- *)

let classes_pool = [ "a"; "b"; "c" ]

let gen_instance =
  QCheck.Gen.(
    sized_size (int_bound 40) (fun n st ->
        let seed = int_bound 1_000_000 st in
        Bounds_workload.Gen.random_forest ~seed ~size:(max 1 n)
          ~mk_entry:(fun rng id ->
            let cls = List.nth classes_pool (Random.State.int rng 3) in
            mk id cls)
          ()))

let gen_query =
  let open QCheck.Gen in
  let leaf = map (fun i -> sel (List.nth classes_pool i)) (int_bound 2) in
  let axis = oneofl [ Query.Child; Query.Parent; Query.Descendant; Query.Ancestor ] in
  sized_size (int_bound 5)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 2,
                 map3
                   (fun ax a b -> Query.Chi (ax, a, b))
                   axis
                   (self (n / 2))
                   (self (n / 2)) );
               (1, map2 (fun a b -> Query.Minus (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Query.Union (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Query.Inter (a, b)) (self (n / 2)) (self (n / 2)));
             ]))

let arb_case =
  QCheck.make
    ~print:(fun (inst, q) ->
      Format.asprintf "size=%d query=%s" (Instance.size inst) (Query.to_string q))
    QCheck.Gen.(pair gen_instance gen_query)

let prop_eval_equiv =
  QCheck.Test.make ~name:"linear evaluator = naive reference" ~count:300 arb_case
    (fun (inst, q) ->
      let fast = List.sort compare (Eval.eval_ids (Index.create inst) q) in
      let slow = Naive_eval.eval inst q in
      fast = slow)

let prop_eval_vindex_equiv =
  QCheck.Test.make ~name:"vindex evaluator = naive reference" ~count:200 arb_case
    (fun (inst, q) ->
      let ix = Index.create inst in
      let fast =
        List.sort compare (Index.ids_of ix (Eval.eval ~vindex:(Vindex.create ix) ix q))
      in
      fast = Naive_eval.eval inst q)

let prop_plan_equiv =
  QCheck.Test.make ~name:"planned evaluator = naive reference" ~count:300 arb_case
    (fun (inst, q) ->
      let vx = Vindex.create (Index.create inst) in
      List.sort compare (Plan.eval_ids vx q) = Naive_eval.eval inst q)

(* Hostile cases for the planner: value-carrying entries (duplicates, the
   numeric/lexicographic "9"/"10"/"2a" mix, empty strings), Not-heavy
   filters, empty And/Or, and deeply nested χ chains — everything the
   cost model could misjudge must still agree extensionally. *)

let hostile_vals = [| "9"; "10"; "2a"; "u1"; "u2"; "name of u1"; "" |]

let gen_rich_instance =
  QCheck.Gen.(
    sized_size (int_bound 30) (fun n st ->
        let seed = int_bound 1_000_000 st in
        Bounds_workload.Gen.random_forest ~seed ~size:(max 1 n)
          ~mk_entry:(fun rng id ->
            let cls = List.nth classes_pool (Random.State.int rng 3) in
            let pairs =
              List.filter_map
                (fun attr ->
                  if Random.State.bool rng then
                    Some
                      ( a attr,
                        Value.String
                          hostile_vals.(Random.State.int rng (Array.length hostile_vals)) )
                  else None)
                [ "uid"; "age"; "name" ]
            in
            Entry.make ~id
              ~classes:(Oclass.Set.of_list [ Oclass.top; Oclass.of_string cls ])
              pairs)
          ()))

let gen_hostile_filter =
  let open QCheck.Gen in
  let value = oneofl (Array.to_list hostile_vals) in
  let gattr = oneofl [ "uid"; "age"; "name"; "phone" ] >|= a in
  let leaf =
    oneof
      [
        map (fun at -> Filter.Present at) gattr;
        map2 (fun at v -> Filter.Eq (at, v)) gattr value;
        map2 (fun at v -> Filter.Ge (at, v)) gattr value;
        map2 (fun at v -> Filter.Le (at, v)) gattr value;
        map2
          (fun at (i, f) ->
            Filter.Substr (at, { Filter.initial = i; any = [ "of" ]; final = f }))
          gattr
          (pair (opt (return "name")) (opt (return "1")));
        return (Filter.And []);
        return (Filter.Or []);
      ]
  in
  sized_size (int_bound 6)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (3, map (fun f -> Filter.Not f) (self (n - 1)));
               (2, map (fun fs -> Filter.And fs) (list_size (int_bound 3) (self (n / 2))));
               (2, map (fun fs -> Filter.Or fs) (list_size (int_bound 3) (self (n / 2))));
             ]))

let gen_hostile_query =
  let open QCheck.Gen in
  let axis = oneofl [ Query.Child; Query.Parent; Query.Descendant; Query.Ancestor ] in
  let leaf = map (fun f -> Query.Select f) gen_hostile_filter in
  sized_size (int_bound 8)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 3,
                 map3
                   (fun ax q b -> Query.Chi (ax, q, b))
                   axis
                   (self (n - 1))
                   (self (n / 2)) );
               (1, map2 (fun q b -> Query.Minus (q, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun q b -> Query.Union (q, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun q b -> Query.Inter (q, b)) (self (n / 2)) (self (n / 2)));
             ]))

let arb_hostile =
  QCheck.make
    ~print:(fun (inst, q) ->
      Format.asprintf "size=%d query=%s" (Instance.size inst) (Query.to_string q))
    QCheck.Gen.(pair gen_rich_instance gen_hostile_query)

let prop_plan_hostile =
  QCheck.Test.make ~name:"planned evaluator = naive on hostile queries" ~count:300
    arb_hostile (fun (inst, q) ->
      let ix = Index.create inst in
      let vx = Vindex.create ix in
      let slow = Naive_eval.eval inst q in
      List.sort compare (Plan.eval_ids vx q) = slow
      && List.sort compare (Index.ids_of ix (Eval.eval ~vindex:vx ix q)) = slow)

(* --- random print/parse round-trips ---------------------------------------- *)

let gen_attr = QCheck.Gen.(oneofl [ "cn"; "mail"; "uid"; "x-opt" ] >|= a)

let gen_value_str =
  QCheck.Gen.(
    oneofl [ "v"; "a b"; "we(i)rd*"; "back\\slash"; ""; "héllo"; "42" ])

let gen_filter =
  let open QCheck.Gen in
  sized_size (int_bound 6)
    (fix (fun self n ->
         if n = 0 then
           oneof
             [
               map (fun at -> Filter.Present at) gen_attr;
               map2 (fun at v -> Filter.Eq (at, v)) gen_attr gen_value_str;
               map2 (fun at v -> Filter.Ge (at, v)) gen_attr (oneofl [ "1"; "z" ]);
               map2 (fun at v -> Filter.Le (at, v)) gen_attr (oneofl [ "9"; "a" ]);
               map2
                 (fun at (i, f) ->
                   Filter.Substr (at, { Filter.initial = i; any = [ "mid" ]; final = f }))
                 gen_attr
                 (pair (opt (return "st")) (opt (return "end")));
             ]
         else
           frequency
             [
               (2, self 0);
               (1, map (fun fs -> Filter.And fs) (list_size (int_bound 3) (self (n / 2))));
               (1, map (fun fs -> Filter.Or fs) (list_size (int_bound 3) (self (n / 2))));
               (1, map (fun f -> Filter.Not f) (self (n / 2)));
             ]))

let prop_filter_roundtrip_random =
  QCheck.Test.make ~name:"filter print/parse roundtrip (random)" ~count:500
    (QCheck.make ~print:Filter.to_string gen_filter)
    (fun f ->
      match Filter_parser.parse (Filter.to_string f) with
      | Ok f' -> Filter.equal f f'
      | Error _ -> false)

let prop_query_roundtrip_random =
  QCheck.Test.make ~name:"query print/parse roundtrip (random)" ~count:300
    (QCheck.make ~print:Query.to_string gen_query)
    (fun q ->
      match Query_parser.parse (Query.to_string q) with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

(* --- bitset model-based property ----------------------------------------- *)

module Iset = Set.Make (Int)

let arb_sets =
  QCheck.make
    ~print:(fun (n, xs, ys) ->
      Printf.sprintf "n=%d xs=%s ys=%s" n
        (String.concat "," (List.map string_of_int xs))
        (String.concat "," (List.map string_of_int ys)))
    QCheck.Gen.(
      int_range 1 64 >>= fun n ->
      pair (return n)
        (pair (list_size (int_bound 40) (int_bound (n - 1)))
           (list_size (int_bound 40) (int_bound (n - 1))))
      >|= fun (n, (xs, ys)) -> (n, xs, ys))

(* --- word-kernel vs byte-reference bit identity -------------------------- *)

(* The byte-at-a-time kernels the word-level rewrite replaced, kept here
   as the reference semantics.  Universe sizes are drawn to land on every
   tail residue (0..7 bytes past a word boundary). *)
module Byte_ref = struct
  let union_into ~into src =
    List.iter (Bitset.set into) (Bitset.elements src)

  let inter a b =
    Bitset.of_list (Bitset.length a)
      (List.filter (Bitset.mem b) (Bitset.elements a))

  let union a b =
    Bitset.of_list (Bitset.length a) (Bitset.elements a @ Bitset.elements b)

  let diff a b =
    Bitset.of_list (Bitset.length a)
      (List.filter (fun i -> not (Bitset.mem b i)) (Bitset.elements a))

  let cardinal a =
    List.fold_left (fun n _ -> n + 1) 0 (Bitset.elements a)

  let iter_range f s ~lo ~hi =
    for i = max lo 0 to min hi (Bitset.length s) - 1 do
      if Bitset.mem s i then f i
    done
end

let arb_word_sets =
  QCheck.make
    ~print:(fun (n, xs, ys, lo, hi) ->
      Printf.sprintf "n=%d lo=%d hi=%d xs=%s ys=%s" n lo hi
        (String.concat "," (List.map string_of_int xs))
        (String.concat "," (List.map string_of_int ys)))
    QCheck.Gen.(
      (* words + every byte-tail residue, plus tiny universes *)
      oneof [ int_range 1 80; int_range 120 200; return 64; return 128 ]
      >>= fun n ->
      list_size (int_bound 60) (int_bound (n - 1)) >>= fun xs ->
      list_size (int_bound 60) (int_bound (n - 1)) >>= fun ys ->
      int_bound (n + 2) >>= fun lo ->
      int_bound (n + 2) >|= fun hi -> (n, xs, ys, lo - 1, hi))

let prop_bitset_word_kernels =
  QCheck.Test.make ~name:"word kernels = byte reference (bit identity)"
    ~count:500 arb_word_sets (fun (n, xs, ys, lo, hi) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let id bs bs' = Bitset.equal bs bs' && Bitset.elements bs = Bitset.elements bs' in
      let into_u = Bitset.copy a and into_u' = Bitset.copy a in
      Bitset.union_into ~into:into_u b;
      Byte_ref.union_into ~into:into_u' b;
      let into_i = Bitset.copy a in
      Bitset.inter_into ~into:into_i b;
      let range s =
        let acc = ref [] in
        Bitset.iter_range (fun i -> acc := i :: !acc) s ~lo ~hi;
        List.rev !acc
      and range' s =
        let acc = ref [] in
        Byte_ref.iter_range (fun i -> acc := i :: !acc) s ~lo ~hi;
        List.rev !acc
      in
      id (Bitset.union a b) (Byte_ref.union a b)
      && id (Bitset.inter a b) (Byte_ref.inter a b)
      && id (Bitset.diff a b) (Byte_ref.diff a b)
      && id into_u into_u'
      && id into_i (Byte_ref.inter a b)
      && Bitset.cardinal a = Byte_ref.cardinal a
      && Bitset.is_empty a = (Byte_ref.cardinal a = 0)
      && Bitset.subset a b = Bitset.is_empty (Byte_ref.diff a b)
      && range a = range' a
      && range (Bitset.full n) = range' (Bitset.full n))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset ops match the set model" ~count:300 arb_sets
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let sa = Iset.of_list xs and sb = Iset.of_list ys in
      let eq bs s = Bitset.elements bs = Iset.elements s in
      eq (Bitset.union a b) (Iset.union sa sb)
      && eq (Bitset.inter a b) (Iset.inter sa sb)
      && eq (Bitset.diff a b) (Iset.diff sa sb)
      && Bitset.cardinal a = Iset.cardinal sa
      && eq (Bitset.complement a)
           (Iset.diff (Iset.of_list (List.init n Fun.id)) sa)
      && Bitset.subset a b = Iset.subset sa sb
      && Bitset.is_empty a = Iset.is_empty sa)

(* [Bitset.splice] carries memoized per-rank sets across index version
   steps; hold the word-gather kernel to the member-by-member reference
   on every alignment of splice point, width and tail residue. *)
let arb_splice =
  QCheck.make
    ~print:(fun (n, xs, at, removed, inserted) ->
      Printf.sprintf "n=%d at=%d removed=%d inserted=%d xs=%s" n at removed
        inserted
        (String.concat "," (List.map string_of_int xs)))
    QCheck.Gen.(
      oneof [ int_range 0 80; int_range 120 200; return 64; return 128 ]
      >>= fun n ->
      (if n = 0 then return [] else list_size (int_bound 60) (int_bound (n - 1)))
      >>= fun xs ->
      int_bound n >>= fun at ->
      int_bound (n - at) >>= fun removed ->
      int_bound 70 >|= fun inserted -> (n, xs, at, removed, inserted))

let prop_bitset_splice =
  QCheck.Test.make ~name:"bitset splice = member reference" ~count:500
    arb_splice (fun (n, xs, at, removed, inserted) ->
      let s = Bitset.of_list n xs in
      let got = Bitset.splice ~at ~removed ~inserted s in
      let want =
        Bitset.of_list
          (n - removed + inserted)
          (List.filter_map
             (fun i ->
               if i < at then Some i
               else if i < at + removed then None
               else Some (i - removed + inserted))
             (List.sort_uniq compare xs))
      in
      Bitset.equal got want
      && Bitset.elements got = Bitset.elements want
      && Bitset.length got = n - removed + inserted)

(* --- search vs reference --------------------------------------------------- *)

let arb_search =
  QCheck.make
    ~print:(fun (seed, k) -> Printf.sprintf "seed=%d k=%d" seed k)
    QCheck.Gen.(pair (int_bound 100_000) (int_bound 1_000))

let prop_search_reference =
  QCheck.Test.make ~name:"scoped search = reference semantics" ~count:200 arb_search
    (fun (seed, k) ->
      let inst =
        Bounds_workload.Gen.random_forest ~seed ~size:(1 + (seed mod 60))
          ~mk_entry:(fun rng id -> mk id (List.nth classes_pool (Random.State.int rng 3)))
          ()
      in
      let ix = Index.create inst in
      let vx = Vindex.create ix in
      let ids = Instance.ids inst and roots = Instance.roots inst in
      let base = List.nth ids (k mod List.length ids) in
      let f = Filter.class_eq (Oclass.of_string (List.nth classes_pool (k mod 3))) in
      let keep id = Filter.matches f (Instance.entry inst id) in
      let reference base scope =
        (match (base, scope) with
        | Some b, Search.Base -> [ b ]
        | Some b, Search.One_level -> Instance.children inst b
        | Some b, Search.Subtree -> b :: Instance.descendants inst b
        | None, Search.Base -> roots
        | None, Search.One_level -> List.concat_map (Instance.children inst) roots
        | None, Search.Subtree -> ids)
        |> List.filter keep
        |> List.sort compare
      in
      List.for_all
        (fun (vindex, base, scope) ->
          List.sort compare (Search.search ?vindex ix ~base scope f)
          = reference base scope
          && Search.count ?vindex ix ~base scope f = List.length (reference base scope))
        (List.concat_map
           (fun vindex ->
             List.concat_map
               (fun base ->
                 List.map
                   (fun scope -> (vindex, base, scope))
                   [ Search.Base; Search.One_level; Search.Subtree ])
               [ None; Some base ])
           [ None; Some vx ]))

(* --- the rank table, across folds --------------------------------------- *)

(* Ids with gaps of up to 10^9 between them: the rank table must not
   assume ids are dense, small or sequential. *)
let sparse_ids rng ~from k =
  let next = ref from in
  List.init k (fun _ ->
      let id = !next in
      next := !next + 1 + Random.State.int rng 1_000_000_000;
      id)

let sparse_forest rng ids =
  List.fold_left
    (fun (inst, placed) id ->
      let parent =
        if placed = [||] || Random.State.int rng 8 = 0 then None
        else Some placed.(Random.State.int rng (Array.length placed))
      in
      (Result.get_ok (Instance.add ~parent (mk id "a") inst), Array.append placed [| id |]))
    (Instance.empty, [||]) ids
  |> fst

(* rank and rank_opt of every probe id, as (rank_opt, rank or None on
   Not_found) pairs *)
let rank_answers ix probes =
  List.map
    (fun id ->
      (Index.rank_opt ix id, match Index.rank ix id with r -> Some r | exception Not_found -> None))
    probes

(* A version's table records at most 64 splices before the writer folds
   it; a chain of one-edit versions this long crosses the fold twice. *)
let past_two_folds = 150

(* Every per-rank fact of [v] against a rebuild of its instance, the
   chunk walks included. *)
let same_as_rebuild v =
  let f = Index.create (Index.instance v) in
  let n = Index.n f in
  let walked = ref [] and depths = ref [] and depths_rev = ref [] in
  Index.iter_entries v ~lo:0 ~hi:(n - 1) (fun r e -> walked := (r, Entry.id e) :: !walked);
  Index.iter_depths v (fun r d -> depths := (r, d) :: !depths);
  Index.iter_depths_rev v (fun r d -> depths_rev := (r, d) :: !depths_rev);
  Index.n v = n
  && List.for_all
       (fun r ->
         Index.id_of_rank v r = Index.id_of_rank f r
         && Entry.equal (Index.entry_of_rank v r) (Index.entry_of_rank f r)
         && Index.parent_rank v r = Index.parent_rank f r
         && Index.depth_of_rank v r = Index.depth_of_rank f r
         && Index.extent_of_rank v r = Index.extent_of_rank f r
         && Index.rank v (Index.id_of_rank f r) = r)
       (List.init n Fun.id)
  && List.rev !walked = List.init n (fun r -> (r, Index.id_of_rank f r))
  && List.rev !depths = List.init n (fun r -> (r, Index.depth_of_rank f r))
  && !depths_rev = List.init n (fun r -> (r, Index.depth_of_rank f r))
  && Index.ids_of v (Bitset.full n) = List.init n (Index.id_of_rank f)

(* One edit of [inst]: a fresh entry under a random parent (or as a
   root), the delete of a random leaf, the graft of a small forest, or
   the prune of a random subtree. *)
let random_step rng fresh v =
  let inst = Index.instance v in
  let ids = Array.of_list (Instance.ids inst) in
  let pick () = ids.(Random.State.int rng (Array.length ids)) in
  let new_id () =
    incr fresh;
    !fresh
  in
  match Random.State.int rng 10 with
  | (0 | 1 | 2) when Array.length ids > 20 -> (
      match List.filter (Instance.is_leaf inst) (Array.to_list ids) with
      | [] -> v
      | leaves -> Index.apply [ Update.Delete (List.nth leaves (Random.State.int rng (List.length leaves))) ] v)
  | 3 when Array.length ids > 40 ->
      let root = pick () in
      if List.length (Instance.descendants inst root) < 12 then Index.prune root v else v
  | 4 ->
      let delta = sparse_forest rng (List.init (1 + Random.State.int rng 6) (fun _ -> new_id ())) in
      Index.graft ~parent:(if Array.length ids = 0 then None else Some (pick ())) delta v
  | _ ->
      let parent = if Array.length ids = 0 || Random.State.int rng 10 = 0 then None else Some (pick ()) in
      Index.apply [ Update.Insert { parent; entry = mk (new_id ()) "b" } ] v

let prop_version_chain_folds =
  QCheck.Test.make ~name:"index versions: a chain across two folds = rebuilds" ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let inst =
        Bounds_workload.Gen.random_forest ~seed ~size:(60 + Random.State.int rng 200)
          ~mk_entry:(fun _ id -> mk id "a") ()
      in
      let fresh = ref (Instance.max_id inst) in
      let versions = Array.make (past_two_folds + 1) (Index.create inst) in
      for i = 1 to past_two_folds do
        versions.(i) <- random_step rng fresh versions.(i - 1);
        if not (same_as_rebuild versions.(i)) then
          QCheck.Test.fail_reportf "version %d differs from its rebuild when sealed" i
      done;
      (* earlier versions, read again after every later one is sealed *)
      Array.iteri
        (fun i v ->
          if not (same_as_rebuild v) then
            QCheck.Test.fail_reportf "version %d differs from its rebuild at the end" i)
        versions;
      true)

let prop_rank_table_sparse =
  QCheck.Test.make ~name:"rank table: sparse ids across a fold" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ids = sparse_ids rng ~from:(Random.State.int rng 1000) (1 + Random.State.int rng 80) in
      let inst = sparse_forest rng ids in
      let v0 = Index.create inst in
      let fresh = ref (Instance.max_id inst + 1 + Random.State.int rng 1_000_000_000) in
      let take k =
        let l = sparse_ids rng ~from:!fresh k in
        fresh := List.fold_left max !fresh l + 1 + Random.State.int rng 1_000_000_000;
        l
      in
      let pick ?(except = []) inst =
        match List.filter (fun id -> not (List.mem id except)) (Instance.ids inst) with
        | [] -> None
        | l -> Some (List.nth l (Random.State.int rng (List.length l)))
      in
      (* one-insert and one-delete versions with sparse ids, past the
         fold bound; every id ever used is probed below *)
      let history = ref ids in
      let chain = ref v0 in
      let steps = ref [] in
      for _ = 1 to past_two_folds / 2 do
        let v = !chain in
        let inst = Index.instance v in
        let leaves = List.filter (Instance.is_leaf inst) (Instance.ids inst) in
        let v' =
          if leaves <> [] && Instance.size inst > 10 && Random.State.bool rng then
            Index.apply [ Update.Delete (List.nth leaves (Random.State.int rng (List.length leaves))) ] v
          else begin
            let id = List.hd (take 1) in
            history := id :: !history;
            Index.apply [ Update.Insert { parent = pick inst; entry = mk id "c" } ] v
          end
        in
        steps := v' :: !steps;
        chain := v'
      done;
      let base = !chain in
      let inst = Index.instance base in
      (* Index.apply: fresh entries under random parents, then the delete
         of a leaf no insert went under *)
      let ops =
        let leaf = Option.to_list (List.find_opt (Instance.is_leaf inst) (Instance.ids inst)) in
        List.map
          (fun id ->
            history := id :: !history;
            Update.Insert { parent = pick ~except:leaf inst; entry = mk id "b" })
          (take (1 + Random.State.int rng 5))
        @ List.map (fun id -> Update.Delete id) leaf
      in
      let v1 = Index.apply ops base in
      let grafted = take (1 + Random.State.int rng 20) in
      history := grafted @ !history;
      let v2 = Index.graft ~parent:(pick (Index.instance v1)) (sparse_forest rng grafted) v1 in
      let v3 =
        match pick (Index.instance v2) with
        | Some root -> Index.prune root v2
        | None -> v2
      in
      List.for_all
        (fun v ->
          let present = Instance.ids (Index.instance v) in
          let absent =
            [ -1; -2; -1_000_000_007; min_int; max_int ]
            @ List.filter (fun id -> not (Instance.mem (Index.instance v) id)) (!history @ take 5)
          in
          let probes = present @ absent in
          rank_answers v probes = rank_answers (Index.create (Index.instance v)) probes
          && List.for_all
               (fun id ->
                 match Index.rank_opt v id with
                 | Some r -> Index.id_of_rank v r = id && Index.rank v id = r
                 | None -> false)
               present
          && List.for_all
               (fun id ->
                 Index.rank_opt v id = None
                 && match Index.rank v id with _ -> false | exception Not_found -> true)
               absent)
        ((v0 :: List.rev !steps) @ [ v1; v2; v3 ]))

(* P7's shape: 10^5 persons under one unit with ids from 6 000 000,
   across the 2^18 multiple at 6 029 312 (the table's capacity at this
   size), then 200 base entries with small ids placed after them in
   preorder.  Building the index, looking up every person and looking
   the base entries up 100 times must cost about what the same shape
   shifted off the boundary costs: a table whose homes cluster at the
   boundary turns the build and the lookups quadratic, and one that
   probes linearly walks the persons' whole run of slots for each base
   entry homed inside it.  CPU time, best of two. *)
let test_rank_table_boundary () =
  let n = 100_000 and base = 200 in
  let cost start =
    let rec persons i k =
      if k = n then i else persons (Instance.add_child_exn ~parent:1 (mk (start + k) "person") i) (k + 1)
    in
    let rec bases i k =
      if k = base then i else bases (Instance.add_child_exn ~parent:0 (mk (2 + k) "person") i) (k + 1)
    in
    let inst =
      Instance.empty
      |> Instance.add_root_exn (mk 0 "org")
      |> Instance.add_child_exn ~parent:0 (mk 1 "unit")
      |> fun i -> bases (persons i 0) 0
    in
    let run () =
      let t0 = Sys.time () in
      let ix = Index.create inst in
      for k = 0 to n - 1 do
        ignore (Index.rank ix (start + k))
      done;
      for _ = 1 to 100 do
        for k = 0 to base - 1 do
          ignore (Index.rank ix (2 + k))
        done
      done;
      Sys.time () -. t0
    in
    Float.min (run ()) (run ())
  in
  let across = cost 6_000_000 and off = cost 6_030_000 in
  if across > 4. *. off then
    Alcotest.failf "ids across the boundary cost %.3fs, shifted off it %.3fs" across off

(* extent_of_rank really brackets the subtree *)
(* [Filter.matches] against its earlier definition, kept here as the
   reference: lowercased copies of both sides and [objectClass] values
   synthesized from the class set.  [Naive_eval] (every oracle's naive
   side) calls [Filter.matches] too, so no differential oracle could see
   a fault in it.  Entries mix case variants, multi-valued and absent
   attributes, and [Int]/[Bool]/[Dn] values; assertion values are case
   variants of those renderings and near misses. *)
module Ref_filter = struct
  let norm = String.lowercase_ascii

  let values e a =
    if Attr.equal a Attr.object_class then
      List.map
        (fun c -> Value.String (Oclass.to_string c))
        (Oclass.Set.elements (Entry.classes e))
    else List.filter_map (fun (b, v) -> if Attr.equal a b then Some v else None) (Entry.stored_pairs e)

  let order_cmp x y =
    match (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y)) with
    | Some a, Some b -> Int.compare a b
    | _ -> String.compare (norm x) (norm y)

  let contains_from hay pos needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some (i + nn)
      else go (i + 1)
    in
    if nn = 0 then Some pos else go pos

  let substr_matches { Filter.initial; any; final } raw =
    let s = norm raw in
    let n = String.length s in
    let pos =
      match initial with
      | None -> Some 0
      | Some i ->
          let i = norm i in
          if String.length i <= n && String.sub s 0 (String.length i) = i then
            Some (String.length i)
          else None
    in
    let pos =
      List.fold_left
        (fun pos mid -> match pos with None -> None | Some p -> contains_from s p (norm mid))
        pos any
    in
    match (pos, final) with
    | None, _ -> false
    | Some _, None -> true
    | Some p, Some f ->
        let f = norm f in
        let nf = String.length f in
        nf <= n - p && String.sub s (n - nf) nf = f

  let rec matches f e =
    match f with
    | Filter.Present a -> values e a <> []
    | Filter.Eq (a, v) ->
        let v = norm v in
        List.exists (fun x -> norm (Value.to_string x) = v) (values e a)
    | Filter.Ge (a, v) ->
        List.exists (fun x -> order_cmp (Value.to_string x) v >= 0) (values e a)
    | Filter.Le (a, v) ->
        List.exists (fun x -> order_cmp (Value.to_string x) v <= 0) (values e a)
    | Filter.Substr (a, sub) ->
        List.exists (fun x -> substr_matches sub (Value.to_string x)) (values e a)
    | Filter.And fs -> List.for_all (fun f -> matches f e) fs
    | Filter.Or fs -> List.exists (fun f -> matches f e) fs
    | Filter.Not f -> not (matches f e)
end

(* Near misses of a rendering [s]: itself, case variants, its first or
   last byte changed, its last dropped, a sign or a zero put in front. *)
let near_miss s =
  let n = String.length s in
  QCheck.Gen.oneofl
    [
      s;
      String.uppercase_ascii s;
      String.lowercase_ascii s;
      String.capitalize_ascii s;
      (if n = 0 then "+" else "+" ^ String.sub s 1 (n - 1));
      (if n = 0 then "x" else String.sub s 0 (n - 1) ^ if s.[n - 1] = 'x' then "y" else "x");
      (if n = 0 then "" else String.sub s 0 (n - 1));
      "-" ^ s;
      "0" ^ s;
      " " ^ s;
    ]

let gen_matches_case =
  let open QCheck.Gen in
  let attrs = [ "cn"; "uid"; "seeAlso" ] in
  let value =
    oneof
      [
        map (fun s -> Value.String s)
          (oneofl [ "Alice"; "alice"; "ALICE"; "al"; ""; " alice"; "Ab"; "aB"; "z"; "-7" ]);
        map (fun n -> Value.Int n) (oneofl [ 0; 7; -7; 42; -42; 100; max_int; min_int ]);
        map (fun b -> Value.Bool b) bool;
        map (fun d -> Value.Dn d) (oneofl [ "uid=Alice,o=Acme"; "UID=alice,O=acme"; "o=x" ]);
      ]
  in
  let entry =
    list_size (int_bound 4) (oneofl [ "person"; "orgUnit"; "staffMember"; "online" ])
    >>= fun classes ->
    list_size (int_bound 6) (pair (oneofl attrs) value) >|= fun pairs ->
    Entry.make ~id:1 ~rdn:"cn=x"
      ~classes:(Oclass.set_of_list ("top" :: classes))
      (List.map (fun (at, v) -> (a at, v)) pairs)
  in
  let pool =
    oneofl
      [ "alice"; "Alice"; "al"; ""; "0"; "7"; "-7"; "+7"; "-"; "true"; "FALSE"; "o=X";
        "person"; "PERSON"; "orgUnit"; "Top"; "onlinE" ]
  in
  let gattr = oneofl ("objectClass" :: attrs) >|= a in
  (* an assertion on one of [e]'s own attributes, its value a near miss
     of one of the values there *)
  let own e =
    let pairs =
      (Attr.object_class, Value.String "objectClass")
      :: List.map (fun c -> (Attr.object_class, Value.String (Oclass.to_string c)))
           (Oclass.Set.elements (Entry.classes e))
      @ Entry.stored_pairs e
    in
    oneofl pairs >>= fun (at, v) -> near_miss (Value.to_string v) >|= fun t -> (at, t)
  in
  let leaf e =
    frequency
      [
        (1, map (fun at -> Filter.Present at) gattr);
        (1, map2 (fun at v -> Filter.Eq (at, v)) gattr pool);
        (4, map (fun (at, v) -> Filter.Eq (at, v)) (own e));
        (1, map (fun (at, v) -> Filter.Ge (at, v)) (own e));
        (1, map (fun (at, v) -> Filter.Le (at, v)) (own e));
        ( 1,
          map3
            (fun at i f -> Filter.Substr (at, { Filter.initial = i; any = [ "L" ]; final = f }))
            gattr (opt (oneofl [ "A"; "uid" ])) (opt (oneofl [ "e"; "ME" ])) );
      ]
  in
  let filter e =
    sized_size (int_bound 6)
      (fix (fun self n ->
           if n = 0 then leaf e
           else
             frequency
               [
                 (2, leaf e);
                 (1, map (fun f -> Filter.Not f) (self (n - 1)));
                 (1, map (fun fs -> Filter.And fs) (list_size (int_bound 3) (self (n / 2))));
                 (1, map (fun fs -> Filter.Or fs) (list_size (int_bound 3) (self (n / 2))));
               ]))
  in
  entry >>= fun e -> filter e >|= fun f -> (e, f)

let prop_filter_matches_reference =
  QCheck.Test.make ~name:"filter matches = reference definition" ~count:3000
    (QCheck.make
       ~print:(fun (e, f) -> Format.asprintf "%a@ %s" Entry.pp e (Filter.to_string f))
       gen_matches_case)
    (fun (e, f) -> Filter.matches f e = Ref_filter.matches f e)

let prop_extent_brackets_subtree =
  QCheck.Test.make ~name:"preorder extents bracket subtrees" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let inst =
        Bounds_workload.Gen.random_forest ~seed ~size:(1 + (seed mod 60))
          ~mk_entry:(fun _ id -> mk id "a")
          ()
      in
      let ix = Index.create inst in
      List.for_all
        (fun id ->
          let r = Index.rank ix id in
          let e = Index.extent_of_rank ix r in
          let in_interval d = r < Index.rank ix d && Index.rank ix d <= e in
          e - r = List.length (Instance.descendants inst id)
          && List.for_all in_interval (Instance.descendants inst id))
        (Instance.ids inst))

(* Adversarial round-trips: the workload generators mix filter
   metacharacters, escapes, NUL and high bytes into values — the printed
   form must reparse to the same AST. *)
let prop_filter_roundtrip_adversarial =
  QCheck.Test.make ~name:"filter roundtrip on adversarial values" ~count:500
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Bounds_workload.Gen.random_filter ~depth:3 rng in
      Filter.equal f (Filter_parser.parse_exn (Filter.to_string f)))

let prop_query_roundtrip_adversarial =
  QCheck.Test.make ~name:"query roundtrip on adversarial values" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Bounds_workload.Gen.random_query ~depth:3 rng in
      Query.equal q (Query_parser.parse_exn (Query.to_string q)))

let () =
  Alcotest.run "query"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "full & edges" `Quick test_bitset_full_and_edges;
          Alcotest.test_case "union_into" `Quick test_union_into;
          Alcotest.test_case "iter_range" `Quick test_iter_range;
        ] );
      ( "filter",
        [
          Alcotest.test_case "matching" `Quick test_filter_matching;
          Alcotest.test_case "substring" `Quick test_filter_substring;
          Alcotest.test_case "parser" `Quick test_filter_parser;
          Alcotest.test_case "escapes" `Quick test_filter_parser_escapes;
          Alcotest.test_case "roundtrip" `Quick test_filter_roundtrip;
        ] );
      ( "query-syntax",
        [
          Alcotest.test_case "parser" `Quick test_query_parser;
          Alcotest.test_case "roundtrip" `Quick test_query_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "select" `Quick test_eval_select;
          Alcotest.test_case "chi axes" `Quick test_eval_chi;
          Alcotest.test_case "minus" `Quick test_eval_minus;
          Alcotest.test_case "empty instance" `Quick test_eval_empty_instance;
          Alcotest.test_case "vindex agreement" `Quick test_vindex_agrees;
          Alcotest.test_case "neighbourhood boundaries" `Quick test_neighbourhood_boundaries;
        ] );
      ( "rank-table",
        [ Alcotest.test_case "dense ids across a capacity boundary" `Quick test_rank_table_boundary ] );
      ( "plan",
        [
          Alcotest.test_case "range edge cases" `Quick test_plan_range_edges;
          Alcotest.test_case "substring edge cases" `Quick test_plan_substr_edges;
          Alcotest.test_case "explain shapes" `Quick test_plan_explain_shapes;
          Alcotest.test_case "memoization" `Quick test_plan_memo;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_eval_equiv;
          QCheck_alcotest.to_alcotest prop_eval_vindex_equiv;
          QCheck_alcotest.to_alcotest prop_plan_equiv;
          QCheck_alcotest.to_alcotest prop_plan_hostile;
          QCheck_alcotest.to_alcotest prop_filter_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_query_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_filter_roundtrip_adversarial;
          QCheck_alcotest.to_alcotest prop_query_roundtrip_adversarial;
          QCheck_alcotest.to_alcotest prop_bitset_model;
          QCheck_alcotest.to_alcotest prop_bitset_word_kernels;
          QCheck_alcotest.to_alcotest prop_bitset_splice;
          QCheck_alcotest.to_alcotest prop_search_reference;
          QCheck_alcotest.to_alcotest prop_rank_table_sparse;
          QCheck_alcotest.to_alcotest prop_version_chain_folds;
          QCheck_alcotest.to_alcotest prop_extent_brackets_subtree;
          QCheck_alcotest.to_alcotest prop_filter_matches_reference;
        ] );
    ]
