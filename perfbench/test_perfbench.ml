(* The benchmark's own helpers: the percentile reporting rule, seed
   determinism of the request and transaction streams, the expected
   answers the load generator checks replies against, and the result
   line's format. *)

open Bounds_model
open Bounds_core
open Perfbench
module WP = Bounds_workload.White_pages

let fail fmt = Printf.ksprintf failwith fmt
let check name b = if not b then fail "%s" name

let percentile_rule () =
  List.iter
    (fun (pm, n) ->
      check (Printf.sprintf "min_samples %d" pm) (Stats.min_samples ~pm = n);
      let sorted = Array.init n float_of_int in
      (match Stats.percentile ~pm sorted with
      | Ok v ->
          check "ten samples beyond" (Array.length sorted - 1 - int_of_float v >= Stats.beyond)
      | Error e -> fail "p%d at %d samples: %s" pm n e);
      check "one sample short is refused"
        (Result.is_error (Stats.percentile ~pm (Array.sub sorted 0 (n - 1)))))
    [ (500, 20); (900, 100); (980, 500); (990, 1000) ];
  (* nearest rank: the p50 of 1..20 is 10, the p90 of 1..100 is 90 *)
  check "p50 rank" (Stats.percentile ~pm:500 (Array.init 20 (fun i -> float_of_int (i + 1))) = Ok 10.);
  check "p90 rank" (Stats.percentile ~pm:900 (Array.init 100 (fun i -> float_of_int (i + 1))) = Ok 90.)

let small seed = WP.generate ~seed ~units:40 ~persons_per_unit:5 ()

let seed_determinism () =
  let stream seed = Inputs.read_stream ~seed (small seed) ~n:500 in
  check "same seed, same reads" (stream 3 = stream 3);
  check "another seed, other reads" (stream 3 <> stream 4);
  let parents seed = Inputs.write_parents ~seed (small seed) ~n:64 in
  check "same seed, same write parents" (parents 3 = parents 3);
  let txns seed =
    List.init 40 (fun k ->
        Inputs.write_text (Inputs.write_txn ~tag:"abc123" ~parents:(parents seed) k))
  in
  check "same seed and tag, same transactions" (txns 3 = txns 3);
  (* the plan file carries the stream to the load generator unchanged *)
  let plan = { Inputs.entries = 7; lsn = 9; parents = parents 3; reads = stream 3 } in
  let path = Filename.temp_file "plan" ".tsv" in
  Inputs.write_plan path plan;
  let back = Inputs.read_plan path in
  Sys.remove path;
  check "plan round trip" (back = plan);
  check "tag length" (String.length (Inputs.fresh_tag ()) = Inputs.tag_length)

(* Every expected answer agrees with the query engine on the generated
   instance, and a fresh person changes an answer exactly when
   [fresh_joins] says so. *)
let expected_answers () =
  let inst = small 5 in
  let schema = WP.schema in
  let answer snap (r : Inputs.read) =
    let dn_list ids = String.concat "\n" (string_of_int (List.length ids) :: List.map (Instance.dn (Directory.Snapshot.instance snap)) ids) in
    match r.cls with
    | Inputs.Query -> dn_list (Directory.Snapshot.query_ids snap (Bounds_query.Query_parser.parse_exn r.text))
    | Inputs.Lookup | Inputs.Search ->
        let base = Option.bind r.base (Instance.resolve_dn (Directory.Snapshot.instance snap)) in
        dn_list
          (Directory.Snapshot.search snap ~base Bounds_query.Search.Subtree
             (Bounds_query.Filter_parser.parse_exn r.text))
  in
  let d = Result.get_ok (Directory.open_ schema inst) in
  let reads = Inputs.read_stream ~seed:5 inst ~n:400 in
  Array.iter
    (fun r ->
      match Inputs.check r (answer (Directory.snapshot d) r) with
      | Ok () -> ()
      | Error e -> fail "%s %s: %s" (Inputs.cls_name r.cls) r.text e)
    reads;
  let parents = Inputs.write_parents ~seed:5 inst ~n:8 in
  Array.iter
    (fun parent_dn ->
      let parent = Option.get (Instance.resolve_dn inst parent_dn) in
      let id = Instance.fresh_id inst in
      let d', verdict =
        Directory.apply d
          [ Update.Insert { parent = Some parent; entry = Inputs.fresh_entry ~id ~uid:"fresh" } ]
      in
      check "fresh person admitted" (Admission.accepted verdict);
      Array.iter
        (fun r ->
          let extra = if Inputs.fresh_joins r ~parent_dn then 1 else 0 in
          let got = answer (Directory.snapshot d') r in
          let count = int_of_string (List.hd (String.split_on_char '\n' got)) in
          match r.expect with
          | Inputs.Count c when count <> c + extra ->
              fail "%s under %s: %d, expected %d + %d" r.text parent_dn count c extra
          | _ -> ())
        reads)
    parents

let result_format () =
  let line =
    Stats.result_line ~correct:true ~attempted:12 ~failed:0
      [
        { Stats.name = "latency_ms"; value = 1.2034; unit_ = "ms" };
        { Stats.name = "req_per_s"; value = 250.; unit_ = "1/s" };
        { Stats.name = "setup_s"; value = 0.1 +. 0.2; unit_ = "s" };
      ]
  in
  let expected =
    "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"latency_ms\": \
     {\"value\": 1.2034, \"unit\": \"ms\"}, \"req_per_s\": {\"value\": 250, \"unit\": \
     \"1/s\"}, \"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
  in
  if line <> expected then fail "result line:\n%s\nexpected:\n%s" line expected;
  check "non-finite values are refused"
    (match Stats.result_line ~correct:true ~attempted:1 ~failed:0 [ { Stats.name = "x"; value = nan; unit_ = "s" } ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "perfbench %s: ok\n" name)
    [
      ("percentile rule", percentile_rule);
      ("seed determinism", seed_determinism);
      ("expected answers", expected_answers);
      ("result format", result_format);
    ]
