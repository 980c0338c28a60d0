(* LDIF reader/writer tests. *)

open Bounds_model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let typing =
  Typing.default
  |> Typing.declare_exn (Attr.of_string "age") Atype.T_int
  |> Typing.declare_exn (Attr.of_string "active") Atype.T_bool

let sample_ldif =
  {|# a small directory
dn: o=att
objectClass: organization
objectClass: top
o: att

dn: ou=research,o=att
objectClass: orgUnit
objectClass: top
ou: research

dn: uid=laks,ou=research,o=att
objectClass: person
objectClass: top
uid: laks
age: 42
active: TRUE
mail: laks@cs.concordia.ca
mail: laks@cse.iitb.ernet.in
|}

let test_parse_basic () =
  let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
  check_int "three entries" 3 (Instance.size inst);
  let laks = Option.get (Instance.resolve_dn inst "uid=laks,ou=research,o=att") in
  let e = Instance.entry inst laks in
  check "person" true (Entry.has_class e (Oclass.of_string "person"));
  check "typed int" true
    (Entry.values e (Attr.of_string "age") = [ Value.Int 42 ]);
  check "typed bool" true
    (Entry.values e (Attr.of_string "active") = [ Value.Bool true ]);
  check_int "two mails" 2 (List.length (Entry.values e (Attr.of_string "mail")));
  check "hierarchy" true
    (Instance.parent inst laks = Instance.resolve_dn inst "ou=research,o=att");
  check "root" true
    (Instance.parent inst (Option.get (Instance.resolve_dn inst "o=att")) = None)

let test_parse_continuation () =
  let ldif = "dn: o=att\nobjectClass: top\no: a very\n  long name\n" in
  let inst = Bounds_codec.Ldif.parse_exn ~typing ldif in
  let e = Instance.entry inst 0 in
  check "folded" true
    (Entry.values e (Attr.of_string "o") = [ Value.String "a very long name" ])

let test_parse_base64 () =
  (* "hello world" *)
  let ldif = "dn: o=att\nobjectClass: top\ndescription:: aGVsbG8gd29ybGQ=\n" in
  let inst = Bounds_codec.Ldif.parse_exn ~typing ldif in
  let e = Instance.entry inst 0 in
  check "decoded" true
    (Entry.values e (Attr.of_string "description") = [ Value.String "hello world" ])

let test_parse_errors () =
  let err s =
    match Bounds_codec.Ldif.parse ~typing s with
    | Error _ -> true
    | Ok _ -> false
  in
  check "no dn first" true (err "objectClass: top\n");
  check "orphan parent" true (err "dn: ou=a,o=missing\nobjectClass: top\n");
  check "no objectclass" true (err "dn: o=att\no: att\n");
  check "bad type" true (err "dn: o=att\nobjectClass: top\nage: forty\n");
  check "bad base64" true (err "dn: o=att\nobjectClass: top\nx:: !!!!\n");
  (* error carries a line number *)
  (match Bounds_codec.Ldif.parse ~typing "dn: o=att\nobjectClass: top\nage: forty\n" with
  | Error e -> check_int "line" 1 e.Bounds_codec.Ldif.line
  | Ok _ -> Alcotest.fail "expected error")

let test_roundtrip () =
  let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
  let inst' = Bounds_codec.Ldif.parse_exn ~typing (Bounds_codec.Ldif.to_string inst) in
  check "equal" true (Instance.equal inst inst')

let test_roundtrip_weird_values () =
  let e =
    Entry.make ~id:0 ~rdn:"o=x"
      ~classes:(Oclass.Set.singleton Oclass.top)
      [
        (Attr.of_string "a", Value.String " leading space");
        (Attr.of_string "b", Value.String "colon: value");
        (Attr.of_string "c", Value.String "uni\xc3\xa9code");
        (Attr.of_string "d", Value.String "");
      ]
  in
  let inst = Instance.add_root_exn e Instance.empty in
  let inst' =
    Bounds_codec.Ldif.parse_exn ~typing:Typing.default
      (Bounds_codec.Ldif.to_string inst)
  in
  check "equal" true (Instance.equal inst inst')

(* LDIF does not carry entry ids (re-parsing numbers entries in document
   order), so round-trips are compared id-agnostically: by the map from
   distinguished name to entry content. *)
let canonical inst =
  Instance.fold
    (fun e acc ->
      let key = String.lowercase_ascii (Instance.dn inst (Entry.id e)) in
      let payload =
        ( List.map Oclass.to_string (Oclass.Set.elements (Entry.classes e)),
          List.sort compare
            (List.map
               (fun (at, v) -> (Attr.to_string at, Value.to_string v))
               (Entry.stored_pairs e)) )
      in
      (key, payload) :: acc)
    inst []
  |> List.sort compare

let test_roundtrip_white_pages () =
  let wp = Bounds_workload.White_pages.instance in
  let out = Bounds_codec.Ldif.to_string wp in
  let back =
    Bounds_codec.Ldif.parse_exn ~typing:Bounds_workload.White_pages.schema.typing out
  in
  check "equal modulo ids" true (canonical wp = canonical back);
  let laks =
    Option.get (Instance.resolve_dn back "uid=laks,ou=databases,ou=attLabs,o=att")
  in
  check_str "dn preserved" "uid=laks,ou=databases,ou=attLabs,o=att"
    (Instance.dn back laks)

let test_roundtrip_generated () =
  let inst = Bounds_workload.White_pages.generate ~units:20 ~persons_per_unit:5 () in
  let back =
    Bounds_codec.Ldif.parse_exn
      ~typing:Bounds_workload.White_pages.schema.typing
      (Bounds_codec.Ldif.to_string inst)
  in
  check "equal modulo ids" true (canonical inst = canonical back)

(* Property: random content-legal instances round-trip through LDIF
   (compared id-agnostically, since LDIF does not carry entry ids). *)
let prop_ldif_roundtrip =
  QCheck.Test.make ~name:"ldif roundtrip on random instances" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let schema = Bounds_workload.White_pages.schema in
      let inst =
        Bounds_workload.Gen.content_legal_forest ~seed ~size:(1 + (seed mod 40))
          schema
      in
      let back =
        Bounds_codec.Ldif.parse_exn
          ~typing:schema.Bounds_core.Schema.typing
          (Bounds_codec.Ldif.to_string inst)
      in
      canonical inst = canonical back)

(* Property: instances whose values are assembled from codec edge-case
   fragments (leading/trailing blanks, CRLF, base64-alphabet text, NUL,
   high bytes) survive the LDIF round-trip byte-for-byte. *)
let prop_ldif_adversarial =
  QCheck.Test.make ~name:"ldif roundtrip on adversarial values" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let inst =
        Bounds_workload.Gen.adversarial_forest ~seed ~size:(1 + (seed mod 10)) ()
      in
      let back =
        Bounds_codec.Ldif.parse_exn ~typing:Typing.default
          (Bounds_codec.Ldif.to_string inst)
      in
      canonical inst = canonical back)

(* --- base64 vectors --------------------------------------------------- *)

let b64_decode = Bounds_codec.Ldif.b64_decode
let b64_encode = Bounds_codec.Ldif.b64_encode

let test_b64_vectors () =
  (* RFC 4648 §10 test vectors, both directions *)
  List.iter
    (fun (plain, coded) ->
      check_str ("encode " ^ plain) coded (b64_encode plain);
      check_str ("decode " ^ coded) plain (b64_decode coded))
    [
      ("", "");
      ("f", "Zg==");
      ("fo", "Zm8=");
      ("foo", "Zm9v");
      ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE=");
      ("foobar", "Zm9vYmFy");
      ("\x00\xff ", "AP8g");
    ]

let test_b64_rejects_malformed () =
  let rejects label s =
    check label true
      (match b64_decode s with
      | (_ : string) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "bad length" "Zm9vY";
  rejects "non-alphabet byte" "Zm9%";
  rejects "embedded newline" "Zm\n9v";
  (* '=' padding is only legal in the final one or two positions *)
  rejects "padding mid-string" "Zg==Zg==";
  rejects "padding then data" "Zm=v";
  rejects "lone final padding misplaced" "Z==v";
  (* positioned error message *)
  check "error names the offset" true
    (match b64_decode "Zg==Zg==" with
    | (_ : string) -> false
    | exception Invalid_argument m ->
        (* the stray '=' is at offset 2 *)
        m = "stray base64 padding '=' at offset 2")

(* --- change records ------------------------------------------------------ *)

let base = lazy (Bounds_codec.Ldif.parse_exn ~typing sample_ldif)

(* ids in [sample_ldif]: o=att 0, ou=research 1, uid=laks 2; adds take
   fresh ids from 3 *)
let changes ?(inst = Lazy.force base) text =
  Bounds_codec.Ldif.parse_changes ~typing inst text

let shape = function
  | Update.Insert { parent; entry } ->
      Printf.sprintf "add %d %s under %s" (Entry.id entry) (Entry.rdn entry)
        (match parent with Some p -> string_of_int p | None -> "root")
  | Update.Delete id -> Printf.sprintf "delete %d" id

let check_changes label ?inst text expected =
  match changes ?inst text with
  | Ok ops -> Alcotest.(check (list string)) label expected (List.map shape ops)
  | Error e -> Alcotest.failf "%s: %s" label e

let person_record dn uid =
  Printf.sprintf "dn: %s\nobjectClass: person\nobjectClass: top\nuid: %s\n" dn uid

let unit_record dn ou =
  Printf.sprintf "dn: %s\nobjectClass: orgUnit\nobjectClass: top\nou: %s\n" dn ou

let delete_record dn = Printf.sprintf "dn: %s\nchangetype: delete\n" dn

let test_changes_existing () =
  check_changes "add under an existing parent"
    (person_record "uid=ada,ou=research,o=att" "ada")
    [ "add 3 uid=ada under 1" ];
  check_changes "delete an existing entry"
    (delete_record "uid=laks,ou=research,o=att")
    [ "delete 2" ]

let test_changes_same_document () =
  check_changes "add under a parent added earlier"
    (unit_record "ou=lab,o=att" "lab" ^ "\n"
    ^ person_record "uid=bob,ou=lab,o=att" "bob")
    [ "add 3 ou=lab under 0"; "add 4 uid=bob under 3" ];
  check_changes "delete an entry added earlier"
    (unit_record "ou=lab,o=att" "lab" ^ "\n" ^ delete_record "ou=lab,o=att")
    [ "add 3 ou=lab under 0"; "delete 3" ]

let test_changes_unknown () =
  List.iter
    (fun (label, text) ->
      match changes text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: resolved" label)
    [
      ("delete of an unknown dn", delete_record "uid=nobody,o=att");
      ( "add under an unknown parent",
        person_record "uid=ada,ou=nowhere,o=att" "ada" );
    ]

let test_changes_case_and_spacing () =
  check_changes "existing entry, other case and spacing"
    (delete_record "UID=Laks , OU=Research,o=ATT")
    [ "delete 2" ];
  check_changes "same-document add, other case and spacing"
    (unit_record "ou=lab,o=att" "lab" ^ "\n"
    ^ person_record "uid=bob, OU=LAB ,o=att" "bob")
    [ "add 3 ou=lab under 0"; "add 4 uid=bob under 3" ]

let test_changes_shared_rdn () =
  (* two siblings with one rdn: the DN is ambiguous, and change records
     must pick the entry searches pick *)
  let unit id =
    Entry.make ~id ~rdn:"ou=dup"
      ~classes:(Oclass.set_of_list [ "orgUnit"; "top" ])
      [ (Attr.of_string "ou", Value.String "dup") ]
  in
  let inst =
    Result.get_ok
      (Update.apply (Lazy.force base)
         [
           Update.Insert { parent = Some 0; entry = unit 10 };
           Update.Insert { parent = Some 0; entry = unit 11 };
         ])
  in
  let id = Option.get (Instance.resolve_dn inst "ou=dup,o=att") in
  check_changes ~inst "delete resolves like resolve_dn"
    (delete_record "ou=dup,o=att")
    [ Printf.sprintf "delete %d" id ];
  check_changes ~inst "parent resolves like resolve_dn"
    (person_record "uid=ada,ou=dup,o=att" "ada")
    [ Printf.sprintf "add 12 uid=ada under %d" id ]

let prop_b64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip on random bytes" ~count:300
    QCheck.(string_of_size Gen.(int_bound 48))
    (fun s -> b64_decode (b64_encode s) = s)

let () =
  Alcotest.run "codec"
    [
      ( "ldif",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "continuation lines" `Quick test_parse_continuation;
          Alcotest.test_case "base64" `Quick test_parse_base64;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip weird values" `Quick
            test_roundtrip_weird_values;
          Alcotest.test_case "roundtrip white pages" `Quick test_roundtrip_white_pages;
          Alcotest.test_case "roundtrip generated" `Quick test_roundtrip_generated;
          QCheck_alcotest.to_alcotest prop_ldif_roundtrip;
          QCheck_alcotest.to_alcotest prop_ldif_adversarial;
        ] );
      ( "changes",
        [
          Alcotest.test_case "existing entries" `Quick test_changes_existing;
          Alcotest.test_case "same-document adds" `Quick test_changes_same_document;
          Alcotest.test_case "unknown dn" `Quick test_changes_unknown;
          Alcotest.test_case "case and spacing" `Quick test_changes_case_and_spacing;
          Alcotest.test_case "siblings sharing an rdn" `Quick test_changes_shared_rdn;
        ] );
      ( "base64",
        [
          Alcotest.test_case "rfc 4648 vectors" `Quick test_b64_vectors;
          Alcotest.test_case "rejects malformed" `Quick test_b64_rejects_malformed;
          QCheck_alcotest.to_alcotest prop_b64_roundtrip;
        ] );
    ]
