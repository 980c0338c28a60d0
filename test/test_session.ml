(* Live directory sessions: the incremental index maintenance of
   Index.apply/graft/prune/replace_entry (interval shifting on a
   copy-on-write version), and the Directory facade that keeps index,
   value tables and query memo consistent across updates. *)

open Bounds_model
open Bounds_core
module Index = Bounds_query.Index
module Query = Bounds_query.Query
module Query_parser = Bounds_query.Query_parser
module Plan = Bounds_query.Plan
module Gen = Bounds_workload.Gen
module WP = Bounds_workload.White_pages

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let a = Attr.of_string
let c = Oclass.of_string
let wp = WP.instance

let person ?(id = 100) ?(uid = "u100") () =
  Entry.make ~id
    ~classes:(Oclass.set_of_list [ "person"; "top" ])
    [ (a "name", Value.String "n"); (a "uid", Value.String uid) ]

let unit_entry ?(id = 100) ?(ou = "newunit") () =
  Entry.make ~id
    ~classes:(Oclass.set_of_list [ "orgunit"; "orggroup"; "top" ])
    [ (a "ou", Value.String ou) ]

(* Compare every per-rank fact the interval-shifting maintenance patches
   against a from-scratch rebuild. *)
let index_diff live fresh =
  if Index.n live <> Index.n fresh then
    Some
      (Printf.sprintf "sizes differ: %d vs %d" (Index.n live) (Index.n fresh))
  else
    let n = Index.n live in
    let rec go r =
      if r = n then None
      else
        let fail what x y =
          Some (Printf.sprintf "rank %d: %s %d vs %d" r what x y)
        in
        let x = Index.id_of_rank live r and y = Index.id_of_rank fresh r in
        if x <> y then fail "id" x y
        else if
          not
            (Entry.equal (Index.entry_of_rank live r)
               (Index.entry_of_rank fresh r))
        then Some (Printf.sprintf "rank %d: entries differ" r)
        else
          let x = Index.parent_rank live r and y = Index.parent_rank fresh r in
          if x <> y then fail "parent" x y
          else
            let x = Index.depth_of_rank live r
            and y = Index.depth_of_rank fresh r in
            if x <> y then fail "depth" x y
            else
              let x = Index.extent_of_rank live r
              and y = Index.extent_of_rank fresh r in
              if x <> y then fail "extent" x y
              else if Index.rank live (Index.id_of_rank live r) <> r then
                Some (Printf.sprintf "rank %d: rank table broken" r)
              else go (r + 1)
    in
    go 0

let check_same_index what live fresh =
  match index_diff live fresh with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" what m

(* --- Index.apply / graft / prune / replace_entry -------------------------- *)

let test_index_apply_insert () =
  let ops =
    [
      Update.Insert { parent = Some 3; entry = person ~id:100 ~uid:"x1" () };
      Update.Insert { parent = Some 100; entry = person ~id:101 ~uid:"x2" () };
      Update.Insert { parent = None; entry = unit_entry ~id:102 () };
    ]
  in
  let final = Result.get_ok (Update.apply wp ops) in
  check_same_index "apply inserts"
    (Index.apply ops (Index.create wp))
    (Index.create final)

let test_index_apply_delete () =
  let ops = [ Update.Delete 4; Update.Delete 5; Update.Delete 3 ] in
  let final = Result.get_ok (Update.apply wp ops) in
  check_same_index "apply deletes"
    (Index.apply ops (Index.create wp))
    (Index.create final)

let test_index_apply_mixed () =
  let ops =
    [
      Update.Delete 4;
      Update.Insert { parent = Some 3; entry = person ~id:100 ~uid:"x1" () };
      Update.Delete 100;
      Update.Insert { parent = Some 1; entry = person ~id:101 ~uid:"x2" () };
    ]
  in
  let final = Result.get_ok (Update.apply wp ops) in
  check_same_index "apply mixed"
    (Index.apply ops (Index.create wp))
    (Index.create final)

let test_graft_and_prune () =
  let delta =
    Instance.add_child_exn ~parent:200
      (person ~id:201 ~uid:"g1" ())
      (Instance.add_root_exn (unit_entry ~id:200 ()) Instance.empty)
  in
  let base_ix = Index.create wp in
  let grafted = Index.graft ~parent:(Some 1) delta base_ix in
  let final =
    Result.get_ok (Update.apply wp (Update.ops_of_subtree ~parent:(Some 1) delta))
  in
  check_same_index "graft" grafted (Index.create final);
  (* pruning the grafted subtree restores the original encoding — and the
     pre-graft snapshot was never disturbed *)
  check_same_index "prune" (Index.prune 200 grafted) (Index.create wp);
  check_same_index "old version untouched" base_ix (Index.create wp)

let test_replace_entry () =
  let old_e = Instance.entry wp 4 in
  let new_e =
    Entry.make ~id:4 ~classes:(Entry.classes old_e)
      [ (a "name", Value.String "renamed"); (a "uid", Value.String "r4") ]
  in
  let ix = Index.replace_entry new_e (Index.create wp) in
  check "entry replaced" true
    (Entry.equal new_e (Index.entry_of_rank ix (Index.rank ix 4)));
  check_same_index "structure unchanged after replace" ix
    (Index.create
       (Result.get_ok (Instance.update_entry 4 (fun _ -> new_e) wp)))

(* --- Directory sessions ---------------------------------------------------- *)

let open_wp () =
  match Directory.open_ WP.schema wp with
  | Ok d -> d
  | Error vs ->
      Alcotest.failf "open_ rejected the white-pages instance: %d violations"
        (List.length vs)

let test_session_lifecycle () =
  let dir = open_wp () in
  let persons = Query.select_class (c "person") in
  let before = List.length (Directory.query_ids dir persons) in
  let ops =
    [ Update.Insert { parent = Some 3; entry = person ~id:100 ~uid:"s1" () } ]
  in
  let dir', _ = Directory.apply dir ops in
  check_int "one more entry" (Directory.size dir + 1) (Directory.size dir');
  check_int "one more person" (before + 1)
    (List.length (Directory.query_ids dir' persons));
  check "still legal by its own audit" true (Directory.validate dir' = []);
  check_same_index "session index = rebuild"
    (Directory.Snapshot.Private.index (Directory.snapshot dir'))
    (Index.create (Directory.instance dir'));
  (* the superseded version is a valid snapshot of its own instance *)
  check_int "old version still answers" before
    (List.length (Directory.query_ids dir persons));
  let s = Directory.stats dir' in
  check_int "applied counted" 1 s.Directory.applied;
  check "memo migrated entries across the update" true
    (s.Directory.memo_migrated > 0)

let test_session_rejection () =
  let dir = open_wp () in
  (* uid is a key in the white-pages schema: duplicating one is rejected *)
  let dup_uid = Entry.values (Instance.entry wp 4) (a "uid") in
  let uid =
    match dup_uid with Value.String s :: _ -> s | _ -> Alcotest.fail "no uid"
  in
  let ops = [ Update.Insert { parent = Some 3; entry = person ~id:100 ~uid () } ] in
  (match Directory.apply dir ops with
  | _, Admission.Accepted _ -> Alcotest.fail "duplicate key accepted"
  | _, Admission.Rejected _ -> ());
  check_int "session unchanged" (Instance.size wp) (Directory.size dir);
  check "still usable" true (Directory.validate dir = []);
  check_int "rejection counted" 1 (Directory.stats dir).Directory.rejected

let test_session_snapshot () =
  let dir = open_wp () in
  let snap = Directory.snapshot dir in
  let persons = Query.select_class (c "person") in
  let before = List.length (Directory.Snapshot.query_ids snap persons) in
  let ops =
    [ Update.Insert { parent = Some 3; entry = person ~id:100 ~uid:"s2" () } ]
  in
  let _dir', _ = Directory.apply dir ops in
  (* the snapshot still answers for its own version after the session moved *)
  check_int "snapshot stable" before
    (List.length (Directory.Snapshot.query_ids snap persons));
  check "snapshot validates" true
    (Directory.Snapshot.validate WP.schema snap = [])

(* The memo's write contract.  The admission scan caches every subquery
   of the Figure-4 obligations (five class selections, two minus and
   three χ nodes on white pages); after that no read writes it, so
   reader threads may share a published snapshot. *)
let memo_size dir = Plan.memo_size (Directory.Snapshot.Private.memo (Directory.snapshot dir))

let obligation_subqueries () =
  Translate.all WP.schema.Schema.structure
  |> List.concat_map (fun (_, q, _) -> Query.subqueries q)
  |> List.sort_uniq compare

let test_memo_reads_write_nothing () =
  let dir = open_wp () in
  let snap = Directory.snapshot dir in
  let before = memo_size dir in
  let text = "(minus (chi d (objectClass=orgUnit) (uid=u1)) (ou=unit1))" in
  let q = Result.get_ok (Query_parser.parse text) in
  check "the read is not an obligation" false (List.mem q (obligation_subqueries ()));
  ignore (Directory.Snapshot.query_ids snap q);
  ignore (Directory.Snapshot.query_ids_ro snap q);
  ignore (Directory.query dir q);
  ignore
    (Directory.search dir ~base:None Bounds_query.Search.Subtree
       (Result.get_ok (Bounds_query.Filter_parser.parse "(uid=u1)")));
  ignore (Bounds_net.Front.serve_query snap text);
  check_int "reads leave the memo as it was" before (memo_size dir)

let test_memo_migration () =
  let dir = open_wp () in
  check_int "white pages has 10 obligation subqueries" 10
    (List.length (obligation_subqueries ()));
  check_int "open caches every one" 10 (memo_size dir);
  let ops = [ Update.Insert { parent = Some 3; entry = person ~id:100 ~uid:"s3" () } ] in
  let dir', _ = Directory.apply dir ops in
  let s = Directory.stats dir' in
  check_int "the class selections are carried" 5 s.Directory.memo_migrated;
  check_int "the χ-dependent nodes are dropped" 5 s.Directory.memo_dropped;
  check_int "the new version's memo" 5 s.Directory.memo_entries;
  check_int "the old version's memo is untouched" 10 (memo_size dir)

(* --- properties ------------------------------------------------------------ *)

let arb_case =
  QCheck.make
    ~print:(fun (seed, size, n) ->
      Printf.sprintf "seed=%d size=%d n_ops=%d" seed size n)
    QCheck.Gen.(triple (int_bound 100000) (int_range 2 40) (int_range 1 12))

(* Index.apply needs only op-validity (insert under an existing parent,
   delete a leaf) — exactly what Gen.random_ops produces — so the pure
   index property holds with no legality in sight. *)
let prop_index_apply =
  QCheck.Test.make ~name:"Index.apply ops = rebuild from scratch" ~count:200
    arb_case (fun (seed, size, n) ->
      let schema = Gen.random_schema_rich ~seed () in
      let counter = ref 0 in
      let inst = Gen.content_legal_forest ~counter ~seed ~size schema in
      let ops = Gen.random_ops ~counter ~seed:(seed + 1) ~n schema inst in
      let final = Result.get_ok (Update.apply inst ops) in
      match index_diff (Index.apply ops (Index.create inst)) (Index.create final) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* --- chunked copy-on-write versions ---------------------------------------- *)

(* Sizes straddling the 256-entry chunk boundary, so every splice shape
   (within one chunk, across a seam, spanning whole chunks) is hit. *)
let arb_chunked =
  QCheck.make
    ~print:(fun (seed, size, n) ->
      Printf.sprintf "seed=%d size=%d n_ops=%d" seed size n)
    QCheck.Gen.(triple (int_bound 100000) (int_range 200 600) (int_range 1 12))

let prop_chunk_boundary_apply =
  QCheck.Test.make
    ~name:"Index.apply at chunk-straddling sizes = rebuild, base isolated"
    ~count:60 arb_chunked (fun (seed, size, n) ->
      let schema = Gen.random_schema_rich ~seed () in
      let counter = ref 0 in
      let inst = Gen.content_legal_forest ~counter ~seed ~size schema in
      let ops = Gen.random_ops ~counter ~seed:(seed + 1) ~n schema inst in
      let final = Result.get_ok (Update.apply inst ops) in
      let base_ix = Index.create inst in
      let next_ix = Index.apply ops base_ix in
      (match index_diff next_ix (Index.create final) with
      | None -> ()
      | Some m -> QCheck.Test.fail_report ("new version: " ^ m));
      (* shared-chunk isolation: the new version shares most chunks with
         its base, yet producing it left the base bit-identical *)
      match index_diff base_ix (Index.create inst) with
      | None -> true
      | Some m -> QCheck.Test.fail_report ("base version mutated: " ^ m))

(* A long chain of versions, each one transaction apart: every sampled
   version must still equal a rebuild of its own instance — no drift
   accumulates down the chain, however deep. *)
let test_deep_version_chain () =
  let depth = 120 in
  let seed = 7 in
  let schema = Gen.random_schema_rich ~seed () in
  let counter = ref 0 in
  let inst = Gen.content_legal_forest ~counter ~seed ~size:400 schema in
  let parents =
    Instance.fold (fun e acc -> Entry.id e :: acc) inst [] |> Array.of_list
  in
  let versions = Array.make (depth + 1) (Index.create inst, inst) in
  let cur = ref (fst versions.(0), inst) in
  for i = 1 to depth do
    let ix, cur_inst = !cur in
    let parent = parents.(i mod Array.length parents) in
    let id = 1_000_000 + i in
    let e =
      Entry.make ~id
        ~rdn:(Printf.sprintf "chain%d" id)
        ~classes:(Oclass.Set.singleton Oclass.top)
        []
    in
    let ops = [ Update.Insert { parent = Some parent; entry = e } ] in
    let inst' = Result.get_ok (Update.apply cur_inst ops) in
    let ix' = Index.apply ops ix in
    versions.(i) <- (ix', inst');
    cur := (ix', inst')
  done;
  (* sample down the chain, then check the head exhaustively: every
     version answers for its own instance after 120 descendants *)
  List.iter
    (fun i ->
      let ix, inst_i = versions.(i) in
      check_same_index
        (Printf.sprintf "version %d of %d" i depth)
        ix (Index.create inst_i))
    [ 0; 1; 40; 80; depth ];
  check_int "chain head grew" (Instance.size inst + depth)
    (Index.n (fst versions.(depth)))

(* Lightly-edited versions of a large directory share almost all their
   chunks: the O(delta + touched-chunks) version step is what breaks the
   1 tx/s write wall, and chunk sharing is its physical witness. *)
let test_chunk_sharing () =
  let base = WP.generate ~seed:11 ~units:500 ~persons_per_unit:20 () in
  let n_versions = 8 in
  let unit_id =
    Instance.fold
      (fun e acc ->
        if Entry.has_class e (c "orgunit") then Some (Entry.id e) else acc)
      base None
    |> Option.get
  in
  let ix0 = Index.create base in
  let chunks = Index.chunk_count ix0 in
  check "large directory spans many chunks" true (chunks > 20);
  let prev = ref ix0 in
  for i = 1 to n_versions do
    let id = 2_000_000 + i in
    let ops =
      [
        Update.Insert
          { parent = Some unit_id; entry = person ~id ~uid:(Printf.sprintf "share%d" id) () };
      ]
    in
    let next = Index.apply ops !prev in
    let shared = Index.shared_chunks next !prev in
    let total = Index.chunk_count next in
    if 10 * shared < 9 * total then
      Alcotest.failf
        "version %d shares only %d of %d chunks with its parent (< 90%%)" i
        shared total;
    prev := next
  done;
  (* and the end of the chain still shares ≥90%% with the original *)
  let shared0 = Index.shared_chunks !prev ix0 in
  check "chain end still shares ≥90% with the base" true
    (10 * shared0 >= 9 * Index.chunk_count !prev)

(* A version costs what its step copies, not O(|D|): on a 10^4-entry
   white-pages session, one accepted insert plus the first root-scoped
   (uid=...) search of the version it makes allocate fewer than n/8
   words directly in the major heap (a block too big for the minor heap
   goes there at once, so these are [major_words] less
   [promoted_words], read after a minor collection).  A per-version
   flat copy of the index, built by the step or by the first read,
   costs several words per entry there.  The index accessors on that
   version allocate nothing at all. *)
let test_version_read_cost () =
  let base = WP.generate ~seed:11 ~units:500 ~persons_per_unit:20 () in
  let n = Instance.size base in
  let unit_id =
    Instance.fold
      (fun e acc -> if Entry.has_class e (c "orgunit") then Some (Entry.id e) else acc)
      base None
    |> Option.get
  in
  let root = List.hd (Instance.roots base) in
  let dir =
    match Directory.open_ WP.schema base with
    | Ok d -> d
    | Error _ -> Alcotest.fail "white pages rejected"
  in
  let id = 3_000_000 in
  Gc.full_major ();
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let dir =
    match
      Directory.apply dir
        [ Update.Insert { parent = Some unit_id; entry = person ~id ~uid:"cost1" () } ]
    with
    | d, Admission.Accepted _ -> d
    | _, Admission.Rejected _ -> Alcotest.fail "insert rejected"
  in
  let snap = Directory.snapshot dir in
  let hits =
    Directory.Snapshot.search snap ~base:(Some root) Bounds_query.Search.Subtree
      (Bounds_query.Filter.Eq (a "uid", "cost1"))
  in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let direct =
    s1.Gc.major_words -. s1.Gc.promoted_words -. (s0.Gc.major_words -. s0.Gc.promoted_words)
  in
  check "the first read finds the insert" true (hits = [ id ]);
  if direct >= float_of_int (n / 8) then
    Alcotest.failf "a write and its first read: %.0f direct major words at n = %d (bound %d)"
      direct n (n / 8);
  let ix = Directory.Snapshot.Private.index snap in
  let probe name f =
    let k = 10_000 in
    let sink = ref 0 in
    let w0 = Gc.minor_words () in
    for i = 0 to k - 1 do
      sink := !sink lxor f (i * 7919 mod n)
    done;
    let words = Gc.minor_words () -. w0 in
    if words > 0. then Alcotest.failf "Index.%s: %.0f minor words over %d calls" name words k
  in
  let r_new = Index.rank ix id in
  probe "rank" (fun r -> Index.rank ix (Index.id_of_rank ix r));
  probe "id_of_rank" (Index.id_of_rank ix);
  probe "entry_of_rank" (fun r -> Entry.id (Index.entry_of_rank ix r));
  probe "parent_rank" (Index.parent_rank ix);
  probe "depth_of_rank" (Index.depth_of_rank ix);
  probe "extent_of_rank" (Index.extent_of_rank ix);
  check "the insert's rank round-trips" true (Index.id_of_rank ix r_new = id)

(* A session driven through several random accepted transactions stays
   extensionally equal to a from-scratch rebuild: same index encoding,
   and its own (memoized) audit still finds nothing. *)
let prop_session_apply =
  QCheck.Test.make ~name:"Directory.apply over random transactions = rebuild"
    ~count:100 arb_case (fun (seed, size, n) ->
      let schema = Gen.random_schema_rich ~seed () in
      let counter = ref 0 in
      let inst = Gen.content_legal_forest ~counter ~seed ~size schema in
      match Directory.open_ schema inst with
      | Error _ -> true (* illegal start: out of the session's contract *)
      | Ok dir ->
          let dir = ref dir in
          for round = 0 to 2 do
            let ops =
              Gen.random_ops ~counter
                ~seed:(seed + 1 + round)
                ~n schema (Directory.instance !dir)
            in
            match Directory.apply !dir ops with
            | d, Admission.Accepted _ -> dir := d
            | _, Admission.Rejected _ -> ()
            (* rejected: session unchanged, keep going *)
          done;
          let fresh = Index.create (Directory.instance !dir) in
          (match
             index_diff
               (Directory.Snapshot.Private.index (Directory.snapshot !dir))
               fresh
           with
          | None -> ()
          | Some m -> QCheck.Test.fail_report m);
          Directory.validate !dir = [])

let () =
  Alcotest.run "session"
    [
      ( "index",
        [
          Alcotest.test_case "apply inserts" `Quick test_index_apply_insert;
          Alcotest.test_case "apply deletes" `Quick test_index_apply_delete;
          Alcotest.test_case "apply mixed" `Quick test_index_apply_mixed;
          Alcotest.test_case "graft and prune" `Quick test_graft_and_prune;
          Alcotest.test_case "replace entry" `Quick test_replace_entry;
          QCheck_alcotest.to_alcotest prop_index_apply;
        ] );
      ( "chunked-versions",
        [
          QCheck_alcotest.to_alcotest prop_chunk_boundary_apply;
          Alcotest.test_case "120-deep version chain" `Quick
            test_deep_version_chain;
          Alcotest.test_case "light edits share ≥90% of chunks" `Quick
            test_chunk_sharing;
          Alcotest.test_case "a write and its first read stay out of the major heap" `Quick
            test_version_read_cost;
        ] );
      ( "directory",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "rejection" `Quick test_session_rejection;
          Alcotest.test_case "snapshot" `Quick test_session_snapshot;
          Alcotest.test_case "reads write no memo" `Quick test_memo_reads_write_nothing;
          Alcotest.test_case "memo migration" `Quick test_memo_migration;
          QCheck_alcotest.to_alcotest prop_session_apply;
        ] );
    ]
