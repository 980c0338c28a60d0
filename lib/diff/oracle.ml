open Bounds_model
open Bounds_core
open Bounds_query
open Bounds_codec
module Gen = Bounds_workload.Gen
module Pool = Bounds_par.Pool
module Store = Bounds_store.Store
module Store_io = Bounds_store.Io

type outcome = Agree | Disagree of string

type t = {
  name : string;
  doc : string;
  generate : seed:int -> Random.State.t -> Case.t;
  check : Case.t -> outcome;
}

(* --- plumbing ----------------------------------------------------------- *)

let sub rng = Random.State.int rng 0x3FFFFFFF

(* Checkers are total: a crash in either engine under comparison is a
   discrepancy, not a harness failure. *)
let total f c =
  try f c with e -> Disagree ("exception escaped: " ^ Printexc.to_string e)

let with_instance c f =
  match c.Case.instance with Some i -> f i | None -> Agree

let with_text c f = match c.Case.text with Some t -> f t | None -> Agree
let with_query c f = match c.Case.query with Some q -> f q | None -> Agree
let with_filter c f = match c.Case.filter with Some fl -> f fl | None -> Agree
let with_schema c f = match c.Case.schema with Some s -> f s | None -> Agree

let disagreef fmt = Printf.ksprintf (fun m -> Disagree m) fmt

let pp_ids ids =
  "[" ^ String.concat " " (List.map string_of_int ids) ^ "]"

let pp_violations vs =
  match vs with
  | [] -> "(none)"
  | _ -> String.concat "; " (List.map Violation.to_string vs)

(* --- independent strict base64 (the reference side of the b64 oracles) -- *)

let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let ref_b64_encode s =
  let n = String.length s in
  let buf = Buffer.create ((n + 2) / 3 * 4) in
  let emit i = Buffer.add_char buf b64_alphabet.[i] in
  let rec go i =
    if i + 3 <= n then begin
      let a = Char.code s.[i] and b = Char.code s.[i + 1] and c = Char.code s.[i + 2] in
      emit (a lsr 2);
      emit (((a land 3) lsl 4) lor (b lsr 4));
      emit (((b land 15) lsl 2) lor (c lsr 6));
      emit (c land 63);
      go (i + 3)
    end
    else if i + 2 = n then begin
      let a = Char.code s.[i] and b = Char.code s.[i + 1] in
      emit (a lsr 2);
      emit (((a land 3) lsl 4) lor (b lsr 4));
      emit ((b land 15) lsl 2);
      Buffer.add_char buf '='
    end
    else if i + 1 = n then begin
      let a = Char.code s.[i] in
      emit (a lsr 2);
      emit ((a land 3) lsl 4);
      Buffer.add_string buf "=="
    end
  in
  go 0;
  Buffer.contents buf

(* Strict decode: alphabet bytes only, length a multiple of four, '=' only
   in the final one or two positions.  Deliberately does {e not} insist on
   zeroed leftover bits — the codec under test is allowed to accept
   non-canonical final sextets, it may not accept structural damage. *)
let ref_b64_decode s =
  let n = String.length s in
  if n mod 4 <> 0 then Error "length not a multiple of 4"
  else
    let pad =
      if n = 0 then 0
      else if s.[n - 1] = '=' then if s.[n - 2] = '=' then 2 else 1
      else 0
    in
    let bad = ref None in
    String.iteri
      (fun i c ->
        if !bad = None then
          if i < n - pad then (
            if not (String.contains b64_alphabet c) then
              bad := Some (Printf.sprintf "byte %d: %C not in alphabet" i c))
          else if c <> '=' then
            bad := Some (Printf.sprintf "byte %d: expected padding" i))
      s;
    match !bad with
    | Some m -> Error m
    | None ->
        let v c = String.index b64_alphabet c in
        let buf = Buffer.create (n / 4 * 3) in
        let rec go i =
          if i < n then begin
            let a = v s.[i] and b = v s.[i + 1] in
            Buffer.add_char buf (Char.chr ((a lsl 2) lor (b lsr 4)));
            if s.[i + 2] <> '=' then begin
              let c = v s.[i + 2] in
              Buffer.add_char buf (Char.chr (((b land 15) lsl 4) lor (c lsr 2)));
              if s.[i + 3] <> '=' then begin
                let d = v s.[i + 3] in
                Buffer.add_char buf (Char.chr (((c land 3) lsl 6) lor d))
              end
            end;
            go (i + 4)
          end
        in
        go 0;
        Ok (Buffer.contents buf)

(* --- adversarial text generators ---------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let b64ish_chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/= \n."

let random_bytes rng =
  String.init (Random.State.int rng 10) (fun _ -> Char.chr (Random.State.int rng 256))

let b64_text rng =
  match Random.State.int rng 4 with
  | 0 -> ref_b64_encode (random_bytes rng)
  | 1 ->
      (* mutate a valid encoding *)
      let s = ref_b64_encode (random_bytes rng) in
      let s = Bytes.of_string s in
      if Bytes.length s = 0 then "="
      else begin
        let i = Random.State.int rng (Bytes.length s) in
        (match Random.State.int rng 3 with
        | 0 -> Bytes.set s i '='
        | 1 -> Bytes.set s i b64ish_chars.[Random.State.int rng (String.length b64ish_chars)]
        | _ -> ());
        let s = Bytes.to_string s in
        if Random.State.bool rng then s
        else String.sub s 0 (Random.State.int rng (String.length s))
      end
  | _ ->
      String.init
        (Random.State.int rng 13)
        (fun _ -> b64ish_chars.[Random.State.int rng (String.length b64ish_chars)])

let pattern_fragments =
  [| "*"; "**"; "a"; "b"; "xy"; {|\2a|}; {|\28|}; {|\29|}; {|\5c|}; {|\*|}; "*a"; "a*"; "" |]

let filter_attrs = [| "a"; "b"; "cn"; "mail" |]

let rec filter_text ~depth rng =
  let attr () = pick rng filter_attrs in
  let pat () =
    String.concat "" (List.init (1 + Random.State.int rng 3) (fun _ -> pick rng pattern_fragments))
  in
  if depth = 0 || Random.State.int rng 3 > 0 then
    match Random.State.int rng 4 with
    | 0 -> Printf.sprintf "(%s=*)" (attr ())
    | 1 -> Printf.sprintf "(%s=%s)" (attr ()) (pat ())
    | 2 -> Printf.sprintf "(%s>=%s)" (attr ()) (pat ())
    | _ -> Printf.sprintf "(%s<=%s)" (attr ()) (pat ())
  else
    match Random.State.int rng 3 with
    | 0 ->
        let n = 1 + Random.State.int rng 2 in
        Printf.sprintf "(&%s)"
          (String.concat "" (List.init n (fun _ -> filter_text ~depth:(depth - 1) rng)))
    | 1 ->
        let n = 1 + Random.State.int rng 2 in
        Printf.sprintf "(|%s)"
          (String.concat "" (List.init n (fun _ -> filter_text ~depth:(depth - 1) rng)))
    | _ -> Printf.sprintf "(!%s)" (filter_text ~depth:(depth - 1) rng)

(* --- instance canonicalization (id-insensitive) ------------------------- *)

let canon inst =
  List.sort compare
    (Instance.fold
       (fun e acc ->
         ( String.lowercase_ascii (Instance.dn inst (Entry.id e)),
           List.sort compare
             (List.map Oclass.to_string (Oclass.Set.elements (Entry.classes e))),
           List.sort compare
             (List.map
                (fun (a, v) -> (Attr.to_string a, Value.to_string v))
                (Entry.stored_pairs e)) )
         :: acc)
       inst [])

let first_canon_diff c1 c2 =
  let rec go l1 l2 =
    match (l1, l2) with
    | [], [] -> "equal"
    | x :: _, [] -> Printf.sprintf "only left has dn %S" (let d, _, _ = x in d)
    | [], y :: _ -> Printf.sprintf "only right has dn %S" (let d, _, _ = y in d)
    | x :: t1, y :: t2 ->
        if x = y then go t1 t2
        else
          let d1, cs1, ps1 = x and d2, cs2, ps2 = y in
          if d1 <> d2 then Printf.sprintf "dn %S vs %S" d1 d2
          else if cs1 <> cs2 then Printf.sprintf "classes differ at dn %S" d1
          else
            let p1 = List.filter (fun p -> not (List.mem p ps2)) ps1
            and p2 = List.filter (fun p -> not (List.mem p ps1)) ps2 in
            Printf.sprintf "pairs differ at dn %S: left-only %s, right-only %s" d1
              (String.concat ", "
                 (List.map (fun (a, v) -> Printf.sprintf "%s=%S" a v) p1))
              (String.concat ", "
                 (List.map (fun (a, v) -> Printf.sprintf "%s=%S" a v) p2))
  in
  go c1 c2

(* --- the oracles -------------------------------------------------------- *)

let small_instance rng =
  Gen.adversarial_forest ~seed:(sub rng) ~size:(1 + Random.State.int rng 7) ()

let ldif_roundtrip =
  {
    name = "ldif-roundtrip";
    doc = "Ldif.parse ∘ Ldif.to_string preserves the instance (RFC 2849)";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"ldif-roundtrip" ~seed
          ~instance:(small_instance rng) ());
    check =
      total (fun c ->
          with_instance c (fun inst ->
              let text = Ldif.to_string inst in
              match Ldif.parse ~typing:Typing.default text with
              | Error e ->
                  disagreef "printed LDIF does not parse back: %s"
                    (Ldif.error_to_string e)
              | Ok inst' ->
                  let a = canon inst and b = canon inst' in
                  if a = b then Agree
                  else disagreef "instance lost in round-trip: %s" (first_canon_diff a b)));
  }

let b64_strict =
  {
    name = "b64-strict";
    doc = "Ldif.b64_decode agrees with an independent strict RFC 4648 decoder";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"b64-strict" ~seed ~text:(b64_text rng) ());
    check =
      total (fun c ->
          with_text c (fun t ->
              let lenient =
                match Ldif.b64_decode t with
                | v -> Ok v
                | exception Invalid_argument m -> Error m
              in
              match (lenient, ref_b64_decode t) with
              | Ok a, Ok b when String.equal a b -> Agree
              | Error _, Error _ -> Agree
              | Ok a, Ok b -> disagreef "decoders differ on %S: %S vs %S" t a b
              | Ok a, Error m ->
                  disagreef "codec accepts %S -> %S; strict reference rejects (%s)" t a m
              | Error m, Ok b ->
                  disagreef "codec rejects %S (%s); strict reference decodes %S" t m b));
  }

let b64_roundtrip =
  {
    name = "b64-roundtrip";
    doc = "b64_decode ∘ b64_encode is the identity and encodings are canonical";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"b64-roundtrip" ~seed ~text:(random_bytes rng) ());
    check =
      total (fun c ->
          with_text c (fun bytes ->
              let enc = Ldif.b64_encode bytes in
              let ref_enc = ref_b64_encode bytes in
              if not (String.equal enc ref_enc) then
                disagreef "encoders differ on %S: %S vs %S" bytes enc ref_enc
              else
                match Ldif.b64_decode enc with
                | dec when String.equal dec bytes -> Agree
                | dec -> disagreef "decode(encode %S) = %S" bytes dec
                | exception Invalid_argument m ->
                    disagreef "decode rejects own encoding %S: %s" enc m));
  }

let filter_roundtrip =
  {
    name = "filter-roundtrip";
    doc = "Filter_parser.parse ∘ Filter.to_string is the identity on ASTs";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"filter-roundtrip" ~seed
          ~filter:(Gen.random_filter ~depth:(1 + Random.State.int rng 3) rng)
          ());
    check =
      total (fun c ->
          with_filter c (fun f ->
              let text = Filter.to_string f in
              match Filter_parser.parse text with
              | Error e ->
                  disagreef "printed filter %S does not parse: %s" text
                    (Parse_error.to_string e)
              | Ok f' ->
                  if Filter.equal f f' then Agree
                  else
                    disagreef "filter changed in round-trip: %S reparses as %S" text
                      (Filter.to_string f')));
  }

let filter_text =
  {
    name = "filter-text";
    doc = "parse ∘ print ∘ parse is stable on adversarial filter texts";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"filter-text" ~seed
          ~text:(filter_text ~depth:2 rng) ());
    check =
      total (fun c ->
          with_text c (fun t ->
              match Filter_parser.parse t with
              | Error _ -> Agree (* rejecting junk is fine; losing data is not *)
              | Ok f -> (
                  let printed = Filter.to_string f in
                  match Filter_parser.parse printed with
                  | Error e ->
                      disagreef "%S parses, but its printed form %S does not: %s" t
                        printed (Parse_error.to_string e)
                  | Ok f' ->
                      if Filter.equal f f' then Agree
                      else
                        disagreef "%S -> %S -> %S: AST changed" t printed
                          (Filter.to_string f'))));
  }

let query_roundtrip =
  {
    name = "query-roundtrip";
    doc = "Query_parser.parse ∘ Query.to_string is the identity on ASTs";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"query-roundtrip" ~seed
          ~query:(Gen.random_query ~depth:(1 + Random.State.int rng 2) rng)
          ());
    check =
      total (fun c ->
          with_query c (fun q ->
              let text = Query.to_string q in
              match Query_parser.parse text with
              | Error e ->
                  disagreef "printed query %S does not parse: %s" text
                    (Parse_error.to_string e)
              | Ok q' ->
                  if Query.equal q q' then Agree
                  else
                    disagreef "query changed in round-trip: %S reparses as %S" text
                      (Query.to_string q')));
  }

let spec_roundtrip =
  {
    name = "spec-roundtrip";
    doc = "Spec_parser.parse ∘ Spec_printer.to_string is the identity on schemas";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"spec-roundtrip" ~seed
          ~schema:(Gen.random_schema_rich ~seed:(sub rng) ()) ());
    check =
      total (fun c ->
          with_schema c (fun s ->
              let text = Spec_printer.to_string s in
              match Spec_parser.parse text with
              | Error e ->
                  disagreef "printed spec does not parse: %s"
                    (Spec_parser.error_to_string e)
              | Ok s' ->
                  if Schema.equal s s' then Agree
                  else Disagree "schema changed in print/parse round-trip"));
  }

let eval_vs_naive =
  {
    name = "eval-vs-naive";
    doc = "indexed Eval agrees with the specification interpreter Naive_eval";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"eval-vs-naive" ~seed
          ~instance:(small_instance rng)
          ~query:(Gen.random_query ~depth:(1 + Random.State.int rng 2) rng)
          ());
    check =
      total (fun c ->
          with_instance c (fun inst ->
              with_query c (fun q ->
                  let ix = Index.create inst in
                  let a = List.sort compare (Eval.eval_ids ix q) in
                  let b = List.sort compare (Naive_eval.eval inst q) in
                  if a = b then Agree
                  else
                    disagreef "eval %s vs naive %s on %s" (pp_ids a) (pp_ids b)
                      (Query.to_string q))));
  }

let plan_vs_naive =
  {
    name = "plan-vs-naive";
    doc = "cost-based Plan agrees with the specification interpreter Naive_eval";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"plan-vs-naive" ~seed
          ~instance:(small_instance rng)
          ~query:(Gen.random_query ~depth:(1 + Random.State.int rng 2) rng)
          ());
    check =
      total (fun c ->
          with_instance c (fun inst ->
              with_query c (fun q ->
                  let vx = Vindex.create (Index.create inst) in
                  let a = List.sort compare (Plan.eval_ids vx q) in
                  let b = List.sort compare (Naive_eval.eval inst q) in
                  if a = b then Agree
                  else
                    disagreef "plan %s vs naive %s on %s" (pp_ids a) (pp_ids b)
                      (Query.to_string q))));
  }

let legality_case name ~seed rng =
  let schema = Gen.random_schema_rich ~seed:(sub rng) () in
  let instance =
    Gen.mutated_forest
      ~counter:(ref 0)
      ~seed:(sub rng)
      ~size:(2 + Random.State.int rng 8)
      schema
  in
  Case.make ~oracle:name ~seed ~schema ~instance ()

let check_legality ~extensions c =
  with_schema c (fun s ->
      with_instance c (fun inst ->
          let a = List.sort Violation.compare (Legality.check ~extensions s inst) in
          let b =
            List.sort Violation.compare (Naive_legality.check ~extensions s inst)
          in
          if List.equal Violation.equal a b then Agree
          else
            disagreef "engine: %s / naive: %s" (pp_violations a) (pp_violations b)))

let legality_vs_naive =
  {
    name = "legality-vs-naive";
    doc = "linear Legality agrees with quadratic Naive_legality (with §6.1 extensions)";
    generate = (fun ~seed rng -> legality_case "legality-vs-naive" ~seed rng);
    check = total (check_legality ~extensions:true);
  }

let legality_noext_vs_naive =
  {
    name = "legality-noext-vs-naive";
    doc = "Legality agrees with Naive_legality (core Definition 2.6 only)";
    generate =
      (fun ~seed rng -> legality_case "legality-noext-vs-naive" ~seed rng);
    check = total (check_legality ~extensions:false);
  }

let monitor_case name ~seed rng =
  let schema = Gen.random_schema_rich ~seed:(sub rng) () in
  let counter = ref 0 in
  let instance =
    Gen.content_legal_forest ~counter ~seed:(sub rng)
      ~size:(2 + Random.State.int rng 6)
      schema
  in
  let ops =
    Gen.random_ops ~counter ~seed:(sub rng) ~n:(1 + Random.State.int rng 5) schema
      instance
  in
  Case.make ~oracle:name ~seed ~schema ~instance ~ops ()

let monitor_vs_recheck =
  {
    name = "monitor-vs-recheck";
    doc = "incremental Monitor agrees with per-step full recheck (Transaction.check)";
    generate = (fun ~seed rng -> monitor_case "monitor-vs-recheck" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  match Monitor.create schema inst with
                  | Error _ ->
                      if Naive_legality.check schema inst = [] then
                        Disagree "Monitor.create rejects a naive-legal instance"
                      else Agree (* illegal start: out of the monitor's contract *)
                  | Ok m -> (
                      if Naive_legality.check schema inst <> [] then
                        Disagree "Monitor.create accepts a naive-illegal instance"
                      else
                        match (Monitor.apply c.Case.ops m, Transaction.check schema inst c.Case.ops) with
                        | Ok (m', _), Ok final ->
                            if Instance.equal (Monitor.instance m') final then Agree
                            else Disagree "both accept but final instances differ"
                        | Error (Monitor.Bad_ops a), Error (Transaction.Bad_ops b) ->
                            if String.equal a b then Agree
                            else disagreef "Bad_ops messages differ: %S vs %S" a b
                        | ( Error (Monitor.Illegal { step = s1; violations = v1 }),
                            Error (Transaction.Illegal { step = s2; violations = v2; _ }) ) ->
                            let v1 = List.sort Violation.compare v1
                            and v2 = List.sort Violation.compare v2 in
                            if s1 = s2 && List.equal Violation.equal v1 v2 then Agree
                            else
                              disagreef
                                "rejections differ: monitor step %d (%s) vs recheck step %d (%s)"
                                s1 (pp_violations v1) s2 (pp_violations v2)
                        | Ok _, Error r ->
                            disagreef "monitor accepts, recheck rejects: %s"
                              (Format.asprintf "%a" Transaction.pp_rejection r)
                        | Error r, Ok _ ->
                            disagreef "monitor rejects (%s), recheck accepts"
                              (Format.asprintf "%a" Monitor.pp_rejection r)
                        | Error r1, Error r2 ->
                            disagreef "rejection kinds differ: %s vs %s"
                              (Format.asprintf "%a" Monitor.pp_rejection r1)
                              (Format.asprintf "%a" Transaction.pp_rejection r2)))));
  }

let txn_witness =
  {
    name = "txn-witness";
    doc = "an accepted transaction's final instance is naive-legal";
    generate = (fun ~seed rng -> monitor_case "txn-witness" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  (* The Theorem 4.1 contract starts from a legal instance;
                     from an illegal one a net-empty transaction is
                     (correctly) accepted without repairing anything. *)
                  if Naive_legality.check schema inst <> [] then Agree
                  else
                  match Transaction.check schema inst c.Case.ops with
                  | Error _ -> Agree
                  | Ok final ->
                      let vs = Naive_legality.check schema final in
                      if vs = [] then Agree
                      else
                        disagreef "accepted transaction yields illegal instance: %s"
                          (pp_violations vs))));
  }

(* Every per-rank fact the interval-shifting maintenance patches, against
   a from-scratch [Index.create] of the same instance. *)
let index_diff live fresh =
  if Index.n live <> Index.n fresh then
    Some (Printf.sprintf "sizes differ: %d vs %d" (Index.n live) (Index.n fresh))
  else
    let n = Index.n live in
    let rec go r =
      if r = n then None
      else
        let fail what a b =
          Some (Printf.sprintf "rank %d: %s %d vs %d" r what a b)
        in
        let a = Index.id_of_rank live r and b = Index.id_of_rank fresh r in
        if a <> b then fail "id" a b
        else if
          not (Entry.equal (Index.entry_of_rank live r) (Index.entry_of_rank fresh r))
        then Some (Printf.sprintf "rank %d: entries differ" r)
        else
          let a = Index.parent_rank live r and b = Index.parent_rank fresh r in
          if a <> b then fail "parent" a b
          else
            let a = Index.depth_of_rank live r and b = Index.depth_of_rank fresh r in
            if a <> b then fail "depth" a b
            else
              let a = Index.extent_of_rank live r
              and b = Index.extent_of_rank fresh r in
              if a <> b then fail "extent" a b
              else if Index.rank live (Index.id_of_rank live r) <> r then
                Some (Printf.sprintf "rank %d: rank table does not round-trip" r)
              else go (r + 1)
    in
    go 0

let index_apply_vs_rebuild =
  {
    name = "index-apply-vs-rebuild";
    doc =
      "a Directory session's incrementally-patched index/vindex/memo agree \
       with a from-scratch rebuild after each accepted transaction";
    generate =
      (fun ~seed rng -> monitor_case "index-apply-vs-rebuild" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  match Directory.open_ schema inst with
                  | Error _ -> Agree (* illegal start: out of contract *)
                  | Ok dir0 -> (
                      match Directory.apply dir0 c.Case.ops with
                      | _, Admission.Rejected _ ->
                          Agree (* rejection is monitor-vs-recheck's job *)
                      | dir, Admission.Accepted _ -> (
                          let live_ix =
                            Directory.Snapshot.Private.index
                              (Directory.snapshot dir)
                          in
                          let final = Directory.instance dir in
                          let fresh_ix = Index.create final in
                          (* the raw-ops twin of the monitor's graft/prune path *)
                          let base_ix = Index.create inst in
                          let twin_ix = Index.apply c.Case.ops base_ix in
                          match
                            match index_diff live_ix fresh_ix with
                            | Some m -> Some ("live index vs rebuild: " ^ m)
                            | None -> (
                                match index_diff twin_ix fresh_ix with
                                | Some m -> Some ("Index.apply vs rebuild: " ^ m)
                                | None -> (
                                    if
                                      not
                                        (Instance.equal (Index.instance live_ix)
                                           final)
                                    then Some "live index instance diverged"
                                    else
                                      (* chunked COW isolation: producing the
                                         new version must leave the base
                                         version bit-identical *)
                                      match
                                        index_diff base_ix (Index.create inst)
                                      with
                                      | Some m ->
                                          Some ("base version mutated: " ^ m)
                                      | None ->
                                          let old_ix =
                                            Directory.Snapshot.Private.index
                                              (Directory.snapshot dir0)
                                          in
                                          Option.map
                                            (fun m ->
                                              "pre-apply session version \
                                               mutated: " ^ m)
                                            (index_diff old_ix
                                               (Index.create inst))))
                          with
                          | Some m -> Disagree m
                          | None -> (
                              (* patched vindex + migrated memo vs fresh ones,
                                 on the very queries the memo caches *)
                              let fresh_vx = Vindex.create fresh_ix in
                              let qs =
                                List.map
                                  (fun (_, q, _) -> q)
                                  (Translate.all schema.Schema.structure)
                              in
                              let bad =
                                List.find_map
                                  (fun q ->
                                    let live =
                                      Index.ids_of live_ix
                                        (Plan.eval
                                           (Directory.Snapshot.Private.vindex
                                              (Directory.snapshot dir))
                                           q)
                                    in
                                    let fresh =
                                      Index.ids_of fresh_ix (Plan.eval fresh_vx q)
                                    in
                                    let memo =
                                      Index.ids_of live_ix (Directory.query dir q)
                                    in
                                    if live <> fresh then
                                      Some
                                        (Printf.sprintf
                                           "patched vindex %s vs fresh %s on %s"
                                           (pp_ids live) (pp_ids fresh)
                                           (Query.to_string q))
                                    else if memo <> fresh then
                                      Some
                                        (Printf.sprintf
                                           "migrated memo %s vs fresh %s on %s"
                                           (pp_ids memo) (pp_ids fresh)
                                           (Query.to_string q))
                                    else None)
                                  qs
                              in
                              match bad with
                              | Some m -> Disagree m
                              | None -> (
                                  match Directory.validate dir with
                                  | [] -> Agree
                                  | vs ->
                                      disagreef
                                        "accepted session fails its own validate: %s"
                                        (pp_violations vs))))))));
  }

let par_vs_seq_legality =
  {
    name = "par-vs-seq-legality";
    doc = "pooled Legality.check is bit-identical to the sequential engine";
    generate =
      (fun ~seed rng -> legality_case "par-vs-seq-legality" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun s ->
              with_instance c (fun inst ->
                  Pool.with_pool ~domains:2 (fun pool ->
                      let a = Legality.check ~pool s inst in
                      let b = Legality.check s inst in
                      if List.equal Violation.equal a b then Agree
                      else
                        disagreef "parallel: %s / sequential: %s" (pp_violations a)
                          (pp_violations b)))));
  }

let par_vs_seq_eval =
  {
    name = "par-vs-seq-eval";
    doc = "pooled index build + Eval is bit-identical to the sequential path";
    generate =
      (fun ~seed rng ->
        Case.make ~oracle:"par-vs-seq-eval" ~seed
          ~instance:(small_instance rng)
          ~query:(Gen.random_query ~depth:(1 + Random.State.int rng 2) rng)
          ());
    check =
      total (fun c ->
          with_instance c (fun inst ->
              with_query c (fun q ->
                  Pool.with_pool ~domains:2 (fun pool ->
                      let a = Eval.eval_ids ~pool (Index.create ~pool inst) q in
                      let b = Eval.eval_ids (Index.create inst) q in
                      if a = b then Agree
                      else disagreef "parallel %s vs sequential %s" (pp_ids a) (pp_ids b)))));
  }

(* The persisted session and its in-memory twin run the same transactions;
   after a mid-run compaction and a full recovery the store must agree with
   the twin on every observable: acceptance verdicts, the instance itself,
   legality, and the memoized obligation answers. *)
let store_roundtrip =
  {
    name = "store-roundtrip";
    doc =
      "a WAL-persisted session recovers to its in-memory twin (instance, \
       legality, obligation answers)";
    generate = (fun ~seed rng -> monitor_case "store-roundtrip" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  let fs = Store_io.fresh_fs () in
                  match
                    (Store.init (Store_io.mem fs) schema inst,
                     Directory.open_ schema inst)
                  with
                  | Error (Store.Illegal _), Error _ ->
                      Agree (* both refuse an illegal seed: out of contract *)
                  | Error e, _ ->
                      disagreef "store refused what the session accepts: %s"
                        (Store.error_to_string e)
                  | Ok _, Error _ ->
                      Disagree "store accepted what the session refuses"
                  | Ok st, Ok twin0 -> (
                      (* split the ops into two transactions with a
                         compaction between them, so recovery always
                         crosses a checkpoint boundary *)
                      let txns =
                        match c.Case.ops with
                        | [] -> [ [] ]
                        | ops ->
                            let k = (List.length ops + 1) / 2 in
                            [
                              List.filteri (fun i _ -> i < k) ops;
                              List.filteri (fun i _ -> i >= k) ops;
                            ]
                      in
                      let rec drive twin accepted = function
                        | [] -> Ok (twin, accepted)
                        | ops :: rest -> (
                            let store_v = Store.apply st ops in
                            let twin', twin_v = Directory.apply twin ops in
                            if accepted = 0 then Store.checkpoint st;
                            match (store_v, twin_v) with
                            | Admission.Accepted _, Admission.Accepted _ ->
                                drive twin' (accepted + 1) rest
                            | Admission.Rejected _, Admission.Rejected _ ->
                                drive twin accepted rest
                            | Admission.Accepted _, Admission.Rejected { reason; _ }
                              ->
                                Error
                                  (Format.asprintf
                                     "store accepts, twin rejects: %a"
                                     Monitor.pp_rejection reason)
                            | Admission.Rejected { reason; _ }, Admission.Accepted _
                              ->
                                Error
                                  (Format.asprintf
                                     "store rejects, twin accepts: %a"
                                     Monitor.pp_rejection reason))
                      in
                      match drive twin0 0 txns with
                      | Error m -> Disagree m
                      | Ok (twin, accepted) -> (
                          Store.close st;
                          match Store.open_ (Store_io.mem fs) with
                          | Error e ->
                              disagreef "recovery failed: %s"
                                (Store.error_to_string e)
                          | Ok (st', report) -> (
                              let dir = Store.directory st' in
                              let verdict =
                                if report.Store.tail <> Store.Clean then
                                  Some "undamaged log recovered as damaged"
                                else if Store.lsn st' <> accepted then
                                  Some
                                    (Printf.sprintf
                                       "recovered lsn %d, %d transactions \
                                        acknowledged"
                                       (Store.lsn st') accepted)
                                else if
                                  not
                                    (Instance.equal (Directory.instance dir)
                                       (Directory.instance twin))
                                then Some "recovered instance diverged"
                                else
                                  match Directory.validate dir with
                                  | _ :: _ as vs ->
                                      Some
                                        ("recovered session fails validate: "
                                        ^ pp_violations vs)
                                  | [] ->
                                      List.find_map
                                        (fun (_, q, _) ->
                                          let a = Directory.query_ids dir q in
                                          let b = Directory.query_ids twin q in
                                          if a = b then None
                                          else
                                            Some
                                              (Printf.sprintf
                                                 "recovered %s vs twin %s on %s"
                                                 (pp_ids a) (pp_ids b)
                                                 (Query.to_string q)))
                                        (Translate.all schema.Schema.structure)
                              in
                              Store.close st';
                              match verdict with
                              | None -> Agree
                              | Some m -> Disagree m))))));
  }

(* Recovery must not depend on which replay engine walks the tail: the
   checked path re-runs full admission per record, the trusted path
   splices without checks (and past the cost crossover, batches the
   index rebuild) — Theorem 4.1 says the verdicts cannot differ on
   records that were admitted when first acknowledged.  Every case holds
   all three trusted regimes (auto, forced batch, forced incremental)
   against the checked baseline on lsn, instance, legality, and the
   memoized obligation answers. *)
let trusted_replay =
  {
    name = "trusted-replay";
    doc =
      "recovery via trusted replay (auto/batch/incremental ingest) agrees \
       with checked replay (instance, legality, obligation answers)";
    generate = (fun ~seed rng -> monitor_case "trusted-replay" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  let fs = Store_io.fresh_fs () in
                  match Store.init (Store_io.mem fs) schema inst with
                  | Error _ -> Agree (* illegal seed: out of contract *)
                  | Ok st -> (
                      (* one record per op leaves the longest possible
                         tail; a compaction after the first keeps a
                         checkpoint boundary in front of recovery *)
                      List.iteri
                        (fun i op ->
                          ignore (Store.apply st [ op ]);
                          if i = 0 then Store.checkpoint st)
                        c.Case.ops;
                      Store.close st;
                      let recover label open_ =
                        match open_ (Store_io.mem (Store_io.copy_fs fs)) with
                        | Error e ->
                            Error (label ^ ": " ^ Store.error_to_string e)
                        | Ok (st', report) ->
                            if report.Store.tail <> Store.Clean then
                              Error
                                (label ^ ": undamaged log recovered as damaged")
                            else Ok st'
                      in
                      match recover "checked" Store.Private.open_checked with
                      | Error m -> Disagree m
                      | Ok ref_st -> (
                          let ref_dir = Store.directory ref_st in
                          let obligations =
                            Translate.all schema.Schema.structure
                          in
                          let compare_one (label, open_) =
                            match recover label open_ with
                            | Error m -> Some m
                            | Ok st' ->
                                let dir = Store.directory st' in
                                let verdict =
                                  if Store.lsn st' <> Store.lsn ref_st then
                                    Some
                                      (Printf.sprintf "%s: lsn %d vs checked %d"
                                         label (Store.lsn st') (Store.lsn ref_st))
                                  else if
                                    not
                                      (Instance.equal (Directory.instance dir)
                                         (Directory.instance ref_dir))
                                  then Some (label ^ ": recovered instance diverged")
                                  else
                                    match Directory.validate dir with
                                    | _ :: _ as vs ->
                                        Some
                                          (label ^ ": fails validate: "
                                          ^ pp_violations vs)
                                    | [] -> (
                                        (* the chunked COW index rebuilt
                                           through recovery must land on
                                           the canonical encoding *)
                                        match
                                          index_diff
                                            (Directory.Snapshot.Private.index
                                               (Directory.snapshot dir))
                                            (Index.create
                                               (Directory.instance dir))
                                        with
                                        | Some m ->
                                            Some
                                              (label
                                             ^ ": recovered index vs rebuild: "
                                             ^ m)
                                        | None ->
                                            List.find_map
                                              (fun (_, q, _) ->
                                                let a =
                                                  Directory.query_ids dir q
                                                in
                                                let b =
                                                  Directory.query_ids ref_dir q
                                                in
                                                if a = b then None
                                                else
                                                  Some
                                                    (Printf.sprintf
                                                       "%s: %s vs checked %s \
                                                        on %s"
                                                       label (pp_ids a)
                                                       (pp_ids b)
                                                       (Query.to_string q)))
                                              obligations)
                                in
                                Store.close st';
                                verdict
                          in
                          let verdict =
                            List.find_map compare_one
                              [
                                ("trusted-auto", fun io -> Store.open_ io);
                                ( "trusted-batch",
                                  Store.Private.open_forced ~force:`Batch );
                                ( "trusted-incremental",
                                  Store.Private.open_forced ~force:`Incremental );
                              ]
                          in
                          Store.close ref_st;
                          match verdict with
                          | None -> Agree
                          | Some m -> Disagree m)))));
  }

(* Interning must be semantically invisible: hash-consing changes
   physical identity only, never an answer.  The twin rebuilds the case
   from fresh string copies with the pools disabled ([Intern.share]
   becomes the identity, so nothing it evaluates is pool-canonical),
   drives the same transactions through its own session, and must agree
   with the interned pipeline on acceptance verdicts, the final
   instance, legality, and the obligation answers. *)
let intern_transparency =
  {
    name = "intern-transparency";
    doc =
      "evaluation with interning disabled agrees with the interned path \
       (instance, legality, obligation answers)";
    generate = (fun ~seed rng -> monitor_case "intern-transparency" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  let copy_s s = String.sub s 0 (String.length s) in
                  let copy_value = function
                    | Value.String s -> Value.String (copy_s s)
                    | Value.Dn d -> Value.Dn (copy_s d)
                    | (Value.Int _ | Value.Bool _) as v -> v
                  in
                  let copy_entry e =
                    Entry.make ~id:(Entry.id e) ~rdn:(copy_s (Entry.rdn e))
                      ~classes:
                        (Oclass.set_of_list
                           (List.map
                              (fun cl -> copy_s (Oclass.to_string cl))
                              (Oclass.Set.elements (Entry.classes e))))
                      (List.map
                         (fun (a, v) ->
                           ( Attr.of_string (copy_s (Attr.to_string a)),
                             copy_value v ))
                         (Entry.stored_pairs e))
                  in
                  let copy_instance i0 =
                    let rec add parent acc id =
                      let acc =
                        match
                          Instance.add ~parent (copy_entry (Instance.entry i0 id)) acc
                        with
                        | Ok acc -> acc
                        | Error e -> failwith (Instance.error_to_string e)
                      in
                      List.fold_left (add (Some id)) acc
                        (List.rev (Instance.rev_children i0 id))
                    in
                    List.fold_left (add None) Instance.empty
                      (List.rev (Instance.rev_roots i0))
                  in
                  let copy_op = function
                    | Update.Insert { parent; entry } ->
                        Update.Insert { parent; entry = copy_entry entry }
                    | Update.Delete _ as op -> op
                  in
                  let drive inst ops =
                    match Directory.open_ schema inst with
                    | Error vs -> Error ("illegal seed: " ^ pp_violations vs)
                    | Ok dir0 ->
                        let dir, verdicts =
                          List.fold_left
                            (fun (dir, vs) op ->
                              match Directory.apply dir [ op ] with
                              | dir', Admission.Accepted _ -> (dir', true :: vs)
                              | _, Admission.Rejected _ -> (dir, false :: vs))
                            (dir0, []) ops
                        in
                        let answers =
                          List.map
                            (fun (_, q, _) -> Directory.query_ids dir q)
                            (Translate.all schema.Schema.structure)
                        in
                        Ok
                          ( Directory.instance dir,
                            List.rev verdicts,
                            Directory.validate dir,
                            answers )
                  in
                  let interned = drive inst c.Case.ops in
                  let plain =
                    Intern.with_disabled (fun () ->
                        drive (copy_instance inst) (List.map copy_op c.Case.ops))
                  in
                  match (interned, plain) with
                  | Error _, Error _ -> Agree (* both refuse the seed *)
                  | Error m, Ok _ -> disagreef "only interned refuses the seed: %s" m
                  | Ok _, Error m ->
                      disagreef "only uninterned refuses the seed: %s" m
                  | Ok (i1, v1, l1, a1), Ok (i2, v2, l2, a2) ->
                      if v1 <> v2 then Disagree "acceptance verdicts diverged"
                      else if not (Instance.equal i1 i2) then
                        Disagree "final instances diverged"
                      else if l1 <> l2 then
                        disagreef "legality diverged: %s vs %s" (pp_violations l1)
                          (pp_violations l2)
                      else if a1 <> a2 then Disagree "obligation answers diverged"
                      else Agree)));
  }

(* WAL shipment, with the wire replaced by an in-process queue and an
   adversary pulling the plug: the primary's ship hook feeds a queue
   that only delivers while "connected"; between transactions the
   adversary disconnects, kills the replica outright (close + recover
   from its own files), compacts the primary, and reconnects from the
   replica's durable lsn — sometimes one lsn early, so the duplicate
   path is exercised, and sometimes from before the primary's base
   checkpoint, so the bootstrap path is.  After a final kill, recovery
   and catch-up, the replica must agree with the primary on lsn, the
   instance itself, legality, and every memoized obligation answer. *)
let replica_convergence =
  {
    name = "replica-convergence";
    doc =
      "a WAL-shipped replica converges to the primary across disconnects, \
       kills and bootstraps (lsn, instance, legality, obligation answers)";
    generate = (fun ~seed rng -> monitor_case "replica-convergence" ~seed rng);
    check =
      total (fun c ->
          with_schema c (fun schema ->
              with_instance c (fun inst ->
                  let fs = Store_io.fresh_fs () in
                  match Store.init (Store_io.mem fs) schema inst with
                  | Error _ -> Agree (* illegal seed: out of contract *)
                  | Ok primary -> (
                      let rng =
                        Random.State.make [| c.Case.seed; 0x5EED |]
                      in
                      let rfs = Store_io.fresh_fs () in
                      let rio = Store_io.mem rfs in
                      let replica = ref None in
                      let connected = ref false in
                      let wire : Store.ship Queue.t = Queue.create () in
                      Store.set_ship_hook primary
                        (Some
                           (fun item ->
                             if !connected then Queue.push item wire));
                      let failure = ref None in
                      let failf fmt =
                        Printf.ksprintf
                          (fun m -> if !failure = None then failure := Some m)
                          fmt
                      in
                      let rlsn () =
                        match !replica with Some s -> Store.lsn s | None -> -1
                      in
                      let apply_shipped lsn ops =
                        match !replica with
                        | None -> failf "shipped record before any bootstrap"
                        | Some s -> (
                            match Store.replica_apply s ~lsn ops with
                            | Ok (`Applied | `Duplicate) -> ()
                            | Error e -> failf "replica_apply: %s" e)
                      in
                      let boot () =
                        (match !replica with
                        | Some s -> Store.close s
                        | None -> ());
                        replica := None;
                        let schema_text, checkpoint, _lsn =
                          Store.boot_blob primary
                        in
                        match
                          Store.install_snapshot rio ~schema:schema_text
                            ~checkpoint
                        with
                        | Error e -> failf "install_snapshot: %s" e
                        | Ok () -> (
                            match Store.open_ rio with
                            | Error e ->
                                failf "bootstrap reopen: %s"
                                  (Store.error_to_string e)
                            | Ok (s, _) -> replica := Some s)
                      in
                      let drain () =
                        while not (Queue.is_empty wire) do
                          match Queue.pop wire with
                          | Store.Ship_txn { lsn; ops } -> apply_shipped lsn ops
                          | Store.Ship_mark _ -> (
                              match !replica with
                              | Some s -> Store.checkpoint s
                              | None -> ())
                        done
                      in
                      let disconnect () =
                        connected := false;
                        (* in-flight but undelivered shipment is lost *)
                        Queue.clear wire
                      in
                      let reconnect () =
                        if not !connected then begin
                          (* resuming one lsn early re-ships a record the
                             replica already holds: the duplicate path *)
                          let from =
                            if Random.State.bool rng then rlsn ()
                            else rlsn () - 1
                          in
                          (match Store.records_from primary ~lsn:from with
                          | `Records rs ->
                              List.iter (fun (lsn, ops) -> apply_shipped lsn ops) rs
                          | `Too_old -> boot ());
                          connected := true
                        end
                      in
                      let kill () =
                        match !replica with
                        | None -> disconnect ()
                        | Some s ->
                            disconnect ();
                            Store.close s;
                            (* recover from the replica's own files, like a
                               daemon restart *)
                            replica := None;
                            (match Store.open_ rio with
                            | Error e ->
                                failf "replica recovery: %s"
                                  (Store.error_to_string e)
                            | Ok (s', _) -> replica := Some s')
                      in
                      reconnect ();
                      (* group ops into transactions of one or two; pairs go
                         through [batch] so batch-order shipment is covered *)
                      let rec chunks = function
                        | [] -> []
                        | a :: b :: rest when Random.State.bool rng ->
                            [ a; b ] :: chunks rest
                        | a :: rest -> [ a ] :: chunks rest
                      in
                      List.iter
                        (fun txn ->
                          (match Random.State.int rng 6 with
                          | 0 -> disconnect ()
                          | 1 -> kill ()
                          | 2 ->
                              Store.checkpoint
                                ~full:(Random.State.bool rng)
                                primary
                          | 3 -> reconnect ()
                          | _ -> ());
                          (match txn with
                          | [ _ ] ->
                              List.iter
                                (fun op -> ignore (Store.apply primary [ op ]))
                                txn
                          | _ ->
                              ignore
                                (Store.batch primary (fun () ->
                                     List.iter
                                       (fun op ->
                                         ignore (Store.apply primary [ op ]))
                                       txn)));
                          if !connected then drain ())
                        (chunks c.Case.ops);
                      (* finale: crash the replica once more, recover, catch
                         up, and demand convergence *)
                      kill ();
                      reconnect ();
                      drain ();
                      let verdict =
                        match !failure with
                        | Some m -> Some m
                        | None -> (
                            match !replica with
                            | None -> Some "no replica after final catch-up"
                            | Some s -> (
                                let pdir = Store.directory primary in
                                let rdir = Store.directory s in
                                if Store.lsn s <> Store.lsn primary then
                                  Some
                                    (Printf.sprintf
                                       "replica lsn %d vs primary %d"
                                       (Store.lsn s) (Store.lsn primary))
                                else if
                                  not
                                    (Instance.equal (Directory.instance rdir)
                                       (Directory.instance pdir))
                                then Some "replica instance diverged"
                                else
                                  match Directory.validate rdir with
                                  | _ :: _ as vs ->
                                      Some
                                        ("replica fails validate: "
                                        ^ pp_violations vs)
                                  | [] ->
                                      List.find_map
                                        (fun (_, q, _) ->
                                          let a = Directory.query_ids rdir q in
                                          let b = Directory.query_ids pdir q in
                                          if a = b then None
                                          else
                                            Some
                                              (Printf.sprintf
                                                 "replica %s vs primary %s on \
                                                  %s"
                                                 (pp_ids a) (pp_ids b)
                                                 (Query.to_string q)))
                                        (Translate.all schema.Schema.structure))
                              )
                      in
                      Store.set_ship_hook primary None;
                      (match !replica with
                      | Some s -> Store.close s
                      | None -> ());
                      Store.close primary;
                      match verdict with
                      | None -> Agree
                      | Some m -> Disagree m))));
  }

let all =
  [
    ldif_roundtrip;
    b64_strict;
    b64_roundtrip;
    filter_roundtrip;
    filter_text;
    query_roundtrip;
    spec_roundtrip;
    eval_vs_naive;
    plan_vs_naive;
    legality_vs_naive;
    legality_noext_vs_naive;
    monitor_vs_recheck;
    txn_witness;
    index_apply_vs_rebuild;
    par_vs_seq_legality;
    par_vs_seq_eval;
    store_roundtrip;
    trusted_replay;
    intern_transparency;
    replica_convergence;
  ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all

let disagrees o c = match o.check c with Disagree _ -> true | Agree -> false
