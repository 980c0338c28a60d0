(* Differential-fuzzing harness tests: the persisted regression corpus
   replays green, a bounded smoke fuzz over every oracle finds nothing,
   and the case codec / shrinker building blocks behave. *)

open Bounds_model
open Bounds_query
module Sexp = Bounds_diff.Sexp
module Case = Bounds_diff.Case
module Shrink = Bounds_diff.Shrink
module Oracle = Bounds_diff.Oracle
module Fuzz = Bounds_diff.Fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- regression corpus ----------------------------------------------- *)

(* dune runtest runs in _build/default/test with the corpus declared as
   deps; `dune exec test/test_diff.exe` runs from the project root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let test_corpus_replays_green () =
  match Fuzz.load_corpus ~dir:corpus_dir with
  | Error m -> Alcotest.failf "corpus load: %s" m
  | Ok cases ->
      check "corpus is not empty" true (List.length cases >= 4);
      List.iter
        (fun (file, case) ->
          match Fuzz.replay case with
          | Ok Oracle.Agree -> ()
          | Ok (Oracle.Disagree m) -> Alcotest.failf "%s: regressed: %s" file m
          | Error m -> Alcotest.failf "%s: %s" file m)
        cases

let test_corpus_covers_the_fixed_bugs () =
  match Fuzz.load_corpus ~dir:corpus_dir with
  | Error m -> Alcotest.failf "corpus load: %s" m
  | Ok cases ->
      let oracles =
        List.sort_uniq String.compare
          (List.map (fun (_, c) -> c.Case.oracle) cases)
      in
      List.iter
        (fun o -> check (o ^ " case present") true (List.mem o oracles))
        [ "b64-strict"; "filter-text"; "ldif-roundtrip"; "query-roundtrip" ]

(* --- smoke fuzz ------------------------------------------------------ *)

let test_smoke_all_oracles_agree () =
  match Fuzz.run ~budget:60 ~seed:42 () with
  | Error m -> Alcotest.fail m
  | Ok reports ->
      check_int "all oracles ran" (List.length Oracle.all) (List.length reports);
      List.iter
        (fun (r : Fuzz.report) ->
          check_int (r.oracle ^ " clean") 0 (List.length r.failures))
        reports

let test_generation_is_deterministic () =
  (* same (oracle, seed, index) → same case, regardless of call order *)
  let o = List.hd Oracle.all in
  let gen i =
    o.Oracle.generate ~seed:i
      (Random.State.make [| 42; Hashtbl.hash o.Oracle.name; i |])
  in
  let a = List.init 5 gen in
  (* generate again in the opposite call order: results must not depend
     on scheduling, only on (oracle, seed, index) *)
  let b = List.rev (List.map gen [ 4; 3; 2; 1; 0 ]) in
  List.iter2 (fun x y -> check "same case" true (Case.equal x y)) a b

(* [search-vs-naive] checks every (base, scope) of its cases; the
   planner's own rule must send some of them down Search's verify branch
   and some down its evaluate branch, or the oracle would hold only one
   of the two against the reference. *)
let test_search_oracle_takes_both_branches () =
  let o = Option.get (Oracle.find "search-vs-naive") in
  let verify = ref 0 and evaluate = ref 0 in
  for i = 0 to 9 do
    let c =
      o.Oracle.generate ~seed:i
        (Random.State.make [| 42; Hashtbl.hash o.Oracle.name; i |])
    in
    let inst = Option.get c.Case.instance in
    let plan =
      Plan.plan (Vindex.create (Index.create inst)) (Query.Select (Option.get c.Case.filter))
    in
    let kids id = List.length (Instance.children inst id) in
    let roots = Instance.roots inst in
    (* candidate counts: roots, their children, the forest; then per base
       itself, its children, its subtree *)
    [ List.length roots; List.fold_left (fun k r -> k + kids r) 0 roots; Instance.size inst ]
    @ List.concat_map
        (fun id -> [ 1; kids id; 1 + List.length (Instance.descendants inst id) ])
        (Instance.ids inst)
    |> List.iter (fun k ->
           if k > 0 then
             incr (if Plan.prefers_verify plan ~candidates:k then verify else evaluate))
  done;
  check "some scopes verify" true (!verify > 0);
  check "some scopes evaluate" true (!evaluate > 0)

(* [query-vs-naive] holds the planner's frame-first rule against the
   reference, so its cases must take both of the rule's branches: on
   each χ axis a selection q1 tested on the frame's neighbourhood, and
   a walk past q1's budget that falls back to the sweep; on ∩ and − a
   right selection tested on the left's members, and one built and
   combined.  Each such node runs alone as a plan, whose explain line
   says which branch it took. *)
let test_query_oracle_takes_both_branches () =
  let o = Option.get (Oracle.find "query-vs-naive") in
  let seen = Hashtbl.create 16 in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  for i = 0 to 9 do
    let c =
      o.Oracle.generate ~seed:i
        (Random.State.make [| 42; Hashtbl.hash o.Oracle.name; i |])
    in
    let vx = Vindex.create (Index.create (Option.get c.Case.instance)) in
    let branch op q =
      let p = Plan.plan vx q in
      ignore (Plan.exec p);
      let line = List.hd (Plan.explain_lines p) in
      List.iter
        (fun mode -> if starts_with (op ^ " " ^ mode) line then Hashtbl.replace seen (op, mode) ())
        [ "verify"; "sweep" ]
    in
    List.iter
      (function
        | Query.Chi (ax, Query.Select f, _) as q
          when Plan.prefers_verify (Plan.plan vx (Query.Select f)) ~candidates:1 ->
            (* q1's budget is positive, so a sweep is the walk's fallback *)
            branch ("chi " ^ Query.axis_to_string ax) q
        | (Query.Inter (_, Query.Select _) | Query.Minus (_, Query.Select _)) as q ->
            branch (match q with Query.Inter _ -> "inter" | _ -> "minus") q
        | _ -> ())
      (Query.subqueries (Option.get c.Case.query))
  done;
  List.iter
    (fun op ->
      check (op ^ " verifies") true (Hashtbl.mem seen (op, "verify"));
      check (op ^ " sweeps") true (Hashtbl.mem seen (op, "sweep")))
    [ "chi c"; "chi p"; "chi d"; "chi a"; "inter"; "minus" ]

(* --- sexp ------------------------------------------------------------ *)

let test_sexp_round_trip () =
  let torture =
    Sexp.List
      [
        Sexp.Atom "plain";
        Sexp.Atom "needs quoting: spaces";
        Sexp.Atom "esc\n\t\"\\\127";
        Sexp.Atom "";
        Sexp.List [ Sexp.Atom "nested"; Sexp.List [] ];
      ]
  in
  match Sexp.parse (Sexp.to_string torture) with
  | Error m -> Alcotest.failf "reparse: %s" m
  | Ok s -> check "sexp round-trips" true (s = torture)

let test_sexp_rejects_trailing () =
  check "trailing input rejected" true
    (match Sexp.parse "(a b) junk" with Error _ -> true | Ok _ -> false)

(* --- case codec ------------------------------------------------------ *)

let attr = Attr.of_string
let oc s = Oclass.Set.of_list [ Oclass.of_string s ]

let sample_instance () =
  let e0 = Entry.make ~id:0 ~rdn:"o=acme" ~classes:(oc "top") [] in
  let e1 =
    Entry.make ~id:1 ~rdn:"cn=a b" ~classes:(oc "person")
      [ (attr "cn", Value.s "a b"); (attr "age", Value.i 3) ]
  in
  let inst = Result.get_ok (Instance.add ~parent:None e0 Instance.empty) in
  Result.get_ok (Instance.add ~parent:(Some 0) e1 inst)

let test_case_round_trip () =
  let inst = sample_instance () in
  let ops =
    [
      Bounds_core.Update.Insert
        {
          parent = Some 1;
          entry = Entry.make ~id:2 ~classes:(oc "person") [ (attr "cn", Value.s "x") ];
        };
      Bounds_core.Update.Delete 2;
    ]
  in
  let filter =
    Filter.And
      [
        Filter.Substr
          (attr "cn", { initial = Some "a*"; any = [ "(" ]; final = None });
        Filter.Not (Filter.Present (attr "age"));
      ]
  in
  let query = Query.Minus (Query.Select filter, Query.Select (Filter.Eq (attr "cn", "\n"))) in
  let case =
    Case.make ~oracle:"unit-test" ~seed:7 ~instance:inst ~ops ~query ~filter
      ~text:"raw \x00 bytes\n" ()
  in
  match Case.of_string (Case.to_string case) with
  | Error m -> Alcotest.failf "decode: %s" m
  | Ok case' ->
      check "case round-trips" true (Case.equal case case');
      (* faithfulness: the hostile filter survived structurally *)
      check "filter intact" true
        (match case'.Case.filter with
        | Some f -> Filter.equal f filter
        | None -> false)

let test_case_codec_is_structural () =
  (* A value with a trailing space — precisely what the pre-fix LDIF
     printer lost — must survive the corpus codec. *)
  let e =
    Entry.make ~id:0 ~classes:(oc "top") [ (attr "cn", Value.s "0 ") ]
  in
  let inst = Result.get_ok (Instance.add ~parent:None e Instance.empty) in
  let case = Case.make ~oracle:"unit-test" ~instance:inst () in
  match Case.of_string (Case.to_string case) with
  | Error m -> Alcotest.failf "decode: %s" m
  | Ok case' ->
      let e' =
        match case'.Case.instance with
        | Some i -> Instance.entry i 0
        | None -> Alcotest.fail "instance lost"
      in
      check "trailing space survives" true
        (Entry.values e' (attr "cn") = [ Value.s "0 " ])

(* --- shrinker -------------------------------------------------------- *)

let test_shrink_text () =
  let case =
    Case.make ~oracle:"unit-test" ~text:"aaaaaaaaaaaaaaaaaaaaXaaaaaaaaaaa" ()
  in
  let still_fails c =
    match c.Case.text with Some t -> String.contains t 'X' | None -> false
  in
  let min = Shrink.minimize ~still_fails case in
  check_str "text shrinks to the witness" "X" (Option.get min.Case.text)

let test_shrink_filter_never_degenerate () =
  (* Shrinking a Substr must not fabricate the unprintable all-empty
     pattern: the minimum for "mentions attribute b" is Present b. *)
  let case =
    Case.make ~oracle:"unit-test"
      ~filter:
        (Filter.Or
           [
             Filter.Substr
               (attr "b", { initial = Some "u"; any = [ "v" ]; final = Some "w" });
             Filter.Eq (attr "c", "long value here");
           ])
      ()
  in
  let rec mentions_b = function
    | Filter.Present a | Filter.Eq (a, _) | Filter.Ge (a, _) | Filter.Le (a, _)
    | Filter.Substr (a, _) ->
        Attr.equal a (attr "b")
    | Filter.And fs | Filter.Or fs -> List.exists mentions_b fs
    | Filter.Not f -> mentions_b f
  in
  let still_fails c =
    match c.Case.filter with Some f -> mentions_b f | None -> false
  in
  let min = Shrink.minimize ~still_fails case in
  check "shrinks to presence" true
    (match min.Case.filter with
    | Some (Filter.Present a) -> Attr.equal a (attr "b")
    | _ -> false)

let test_shrink_instance () =
  (* minimal witness for "some entry has attribute age": the shrinker
     drops subtrees but never reparents, so the witness keeps its root —
     two entries, and the witness entry loses its other pair *)
  let inst = sample_instance () in
  let case = Case.make ~oracle:"unit-test" ~instance:inst () in
  let still_fails c =
    match c.Case.instance with
    | Some i ->
        let found = ref false in
        Instance.iter_preorder
          (fun ~depth:_ e -> if Entry.values e (attr "age") <> [] then found := true)
          i;
        !found
    | None -> false
  in
  let min = Shrink.minimize ~still_fails case in
  match min.Case.instance with
  | Some i ->
      check_int "root + witness only" 2 (Instance.size i);
      check_int "witness keeps just age" 1
        (List.length (Entry.stored_pairs (Instance.entry i 1)))
  | None -> Alcotest.fail "instance lost"

let () =
  Alcotest.run "diff"
    [
      ( "corpus",
        [
          Alcotest.test_case "replays green" `Quick test_corpus_replays_green;
          Alcotest.test_case "covers fixed bugs" `Quick test_corpus_covers_the_fixed_bugs;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "smoke: all oracles agree" `Quick test_smoke_all_oracles_agree;
          Alcotest.test_case "search-vs-naive takes both branches" `Quick
            test_search_oracle_takes_both_branches;
          Alcotest.test_case "query-vs-naive takes both branches" `Quick
            test_query_oracle_takes_both_branches;
          Alcotest.test_case "deterministic generation" `Quick test_generation_is_deterministic;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "round-trip" `Quick test_sexp_round_trip;
          Alcotest.test_case "trailing input" `Quick test_sexp_rejects_trailing;
        ] );
      ( "case",
        [
          Alcotest.test_case "round-trip" `Quick test_case_round_trip;
          Alcotest.test_case "structural codec" `Quick test_case_codec_is_structural;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "text" `Quick test_shrink_text;
          Alcotest.test_case "no degenerate substr" `Quick test_shrink_filter_never_degenerate;
          Alcotest.test_case "instance" `Quick test_shrink_instance;
        ] );
    ]
