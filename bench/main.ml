(* Benchmark harness: one experiment per complexity claim of the paper
   (see DESIGN.md, per-experiment index).  Each experiment is a Bechamel
   test (indexed by the swept parameter) whose per-point run-time estimate
   is printed as the series the paper's theorems predict the shape of.

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- T31 Q9  (a subset) *)

open Bechamel
open Bounds_model
open Bounds_core
open Bounds_query
module WP = Bounds_workload.White_pages
module Store = Bounds_store.Store
module Sio = Bounds_store.Io

(* --- measurement ------------------------------------------------------- *)

let run_test ?(quota = 0.4) test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> Float.nan
      in
      (name, est) :: acc)
    res []

(* ns/run for the point named "<name>:<arg>" *)
let point results name arg =
  match List.assoc_opt (Printf.sprintf "%s:%d" name arg) results with
  | Some ns -> ns
  | None -> Float.nan

let pp_time ns =
  if Float.is_nan ns then "      n/a"
  else if ns >= 1e9 then Printf.sprintf "%7.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%7.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%7.2f us" (ns /. 1e3)
  else Printf.sprintf "%7.1f ns" ns

let pp_ratio r = if Float.is_nan r then "    -" else Printf.sprintf "%5.2f" r
let header title claim = Printf.printf "\n== %s ==\n%s\n" title claim

(* growth factors between successive points of a doubling series *)
let growth series =
  let rec go = function
    | a :: (b :: _ as rest) -> (b /. a) :: go rest
    | _ -> []
  in
  go series

let avg = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Peak major-heap footprint of the process so far, in bytes.
   [top_heap_words] is a monotone high-water mark, so a reading taken
   when an experiment writes its JSON covers everything it allocated;
   every BENCH_*.json carries it so the memory trajectory is tracked
   across PRs alongside the time series. *)
let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let pp_bytes b =
  if b >= 1 lsl 30 then
    Printf.sprintf "%7.2f GiB" (float_of_int b /. float_of_int (1 lsl 30))
  else if b >= 1 lsl 20 then
    Printf.sprintf "%7.1f MiB" (float_of_int b /. float_of_int (1 lsl 20))
  else Printf.sprintf "%7d KiB" (b / 1024)

(* --- T31: legality testing, query-based vs naive  ----------------------- *)

let exp_t31 () =
  header "T31  legality testing (Theorem 3.1)"
    "claim: the query-reduction checker is linear in |D|; the pairwise\n\
     strawman is quadratic - same verdicts, diverging cost.";
  let sizes_fast = [ 250; 500; 1000; 2000; 4000; 8000 ] in
  let sizes_naive = [ 250; 500; 1000; 2000 ] in
  let instance_of n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
  let fast =
    Test.make_indexed ~name:"fast" ~args:sizes_fast (fun n ->
        Staged.stage
          (let inst = instance_of n in
           fun () -> ignore (Legality.check WP.schema inst)))
  in
  let naive =
    Test.make_indexed ~name:"naive" ~args:sizes_naive (fun n ->
        Staged.stage
          (let inst = instance_of n in
           fun () -> ignore (Naive_legality.check WP.schema inst)))
  in
  let r = run_test (Test.make_grouped ~name:"t31" [ fast; naive ]) in
  Printf.printf "  %8s  %12s  %14s  %11s\n" "|D|" "query-based" "naive-pairwise"
    "naive/fast";
  List.iter
    (fun n ->
      let f = point r "t31/fast" n and s = point r "t31/naive" n in
      Printf.printf "  %8d  %s    %s     %s\n" n (pp_time f) (pp_time s)
        (pp_ratio (s /. f)))
    sizes_fast;
  let ffast = growth (List.map (point r "t31/fast") sizes_fast) in
  let fnaive = growth (List.map (point r "t31/naive") sizes_naive) in
  Printf.printf
    "  shape: per-doubling growth - fast %.2fx (linear=2), naive %.2fx (quadratic=4)\n"
    (avg ffast) (avg fnaive)

(* --- T42: incremental vs full rechecking under updates ------------------- *)

let exp_t42 () =
  header "T42  incremental legality under updates (Theorem 4.2, Figure 5)"
    "claim: checking one small insertion/deletion incrementally costs\n\
     O(|delta| + frontier), independent of |D|; full recheck grows with |D|.";
  let sizes = [ 500; 1000; 2000; 4000; 8000 ] in
  let setup n =
    let base = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
    let delta = WP.fresh_person base ~seed:(n + 1) in
    let unit =
      Bounds_model.Instance.fold
        (fun e acc ->
          if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
          else acc)
        base None
    in
    (base, delta, Option.get unit)
  in
  let inc =
    Test.make_indexed ~name:"incremental" ~args:sizes (fun n ->
        Staged.stage
          (let base, delta, unit = setup n in
           fun () ->
             ignore
               (Result.get_ok
                  (Incremental.check_insert WP.schema ~base ~parent:(Some unit)
                     ~delta))))
  in
  let full =
    Test.make_indexed ~name:"full" ~args:sizes (fun n ->
        Staged.stage
          (let base, delta, unit = setup n in
           let updated =
             Result.get_ok (Bounds_model.Instance.graft ~parent:(Some unit) delta base)
           in
           fun () -> ignore (Legality.check ~extensions:false WP.schema updated)))
  in
  let del =
    Test.make_indexed ~name:"inc-delete" ~args:sizes (fun n ->
        Staged.stage
          (let base, _, _ = setup n in
           let victim =
             Bounds_model.Instance.fold
               (fun e acc ->
                 if
                   Entry.has_class e (Oclass.of_string "person")
                   && Bounds_model.Instance.is_leaf base (Entry.id e)
                 then Some (Entry.id e)
                 else acc)
               base None
             |> Option.get
           in
           fun () ->
             ignore
               (Result.get_ok (Incremental.check_delete WP.schema ~base ~root:victim))))
  in
  let r = run_test (Test.make_grouped ~name:"t42" [ inc; full; del ]) in
  Printf.printf "  %8s  %13s  %13s  %13s  %11s\n" "|D|" "inc. insert" "inc. delete"
    "full recheck" "full/inc";
  List.iter
    (fun n ->
      let i = point r "t42/incremental" n
      and d = point r "t42/inc-delete" n
      and f = point r "t42/full" n in
      Printf.printf "  %8d  %s     %s     %s    %s\n" n (pp_time i) (pp_time d)
        (pp_time f) (pp_ratio (f /. i)))
    sizes;
  Printf.printf
    "  shape: per-doubling growth - incremental %.2fx (flat=1), full %.2fx (linear=2)\n"
    (avg (growth (List.map (point r "t42/incremental") sizes)))
    (avg (growth (List.map (point r "t42/full") sizes)))

(* --- T52: consistency checking is schema-polynomial ---------------------- *)

let exp_t52 () =
  header "T52  consistency checking (Theorem 5.2)"
    "claim: saturation of the inference system is polynomial in the schema\n\
     size (and needs no instance at all).";
  let sizes = [ 8; 16; 32; 64; 128 ] in
  let schema_of n =
    Bounds_workload.Gen.random_schema ~seed:n ~n_classes:n ~n_req:n ~n_forb:(n / 2)
      ~n_required_classes:(max 1 (n / 8))
  in
  let sat =
    Test.make_indexed ~name:"saturate" ~args:sizes (fun n ->
        Staged.stage
          (let schema = schema_of n in
           fun () -> ignore (Inference.saturate schema)))
  in
  let r = run_test (Test.make_grouped ~name:"t52" [ sat ]) in
  Printf.printf "  %8s  %12s  %8s  %9s  %13s\n" "classes" "saturate" "passes"
    "elements" "verdict";
  List.iter
    (fun n ->
      let schema = schema_of n in
      let inf = Inference.saturate schema in
      let passes, derived = Inference.stats inf in
      Printf.printf "  %8d  %s    %8d  %9d  %13s\n" n
        (pp_time (point r "t52/saturate" n))
        passes derived
        (if Inference.inconsistent inf then "inconsistent" else "consistent"))
    sizes;
  let g = avg (growth (List.map (point r "t52/saturate") sizes)) in
  Printf.printf
    "  shape: per-doubling growth %.2fx => fitted exponent ~%.1f (polynomial, as\n\
    \  claimed: the derivable-element universe alone grows quadratically in the\n\
    \  class count, and each saturation pass joins over it)\n"
    g
    (Float.log g /. Float.log 2.)

(* --- Q9: hierarchical query evaluation is O(|Q| * |D|) -------------------- *)

let exp_q9 () =
  header "Q9   hierarchical query evaluation (claim inherited from [9])"
    "claim: one pass per operator - linear in |D| for fixed Q, linear in\n\
     |Q| for fixed D; the pairwise reference evaluator is quadratic.";
  let q1 =
    Query.Minus
      ( Query.select_class (Oclass.of_string "orggroup"),
        Query.Chi
          ( Query.Descendant,
            Query.select_class (Oclass.of_string "orggroup"),
            Query.select_class (Oclass.of_string "person") ) )
  in
  let sizes = [ 1000; 2000; 4000; 8000; 16000 ] in
  let dsweep =
    Test.make_indexed ~name:"eval-by-D" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           fun () -> ignore (Eval.eval ix q1)))
  in
  (* |Q| sweep: chain of chi-ancestor operators *)
  let qsizes = [ 1; 2; 4; 8; 16 ] in
  let deep_query k =
    let base = Query.select_class (Oclass.of_string "person") in
    let rec chain k q =
      if k = 0 then q
      else
        chain (k - 1)
          (Query.Chi
             (Query.Ancestor, q, Query.select_class (Oclass.of_string "orggroup")))
    in
    chain k base
  in
  let qsweep =
    Test.make_indexed ~name:"eval-by-Q" ~args:qsizes (fun k ->
        Staged.stage
          (let inst = WP.generate ~seed:9 ~units:160 ~persons_per_unit:20 () in
           let ix = Index.create inst in
           let q = deep_query k in
           fun () -> ignore (Eval.eval ix q)))
  in
  let nsizes = [ 250; 500; 1000; 2000 ] in
  let naive =
    Test.make_indexed ~name:"naive-eval" ~args:nsizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           fun () -> ignore (Naive_eval.eval inst q1)))
  in
  let fast_small =
    Test.make_indexed ~name:"fast-eval" ~args:nsizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           fun () -> ignore (Eval.eval ix q1)))
  in
  let r =
    run_test (Test.make_grouped ~name:"q9" [ dsweep; qsweep; naive; fast_small ])
  in
  Printf.printf "  by |D| (fixed Q1):\n  %8s  %12s\n" "|D|" "eval";
  List.iter
    (fun n -> Printf.printf "  %8d  %s\n" n (pp_time (point r "q9/eval-by-D" n)))
    sizes;
  Printf.printf "  by |Q| (chi-chain, |D|=3367):\n  %8s  %12s\n" "depth" "eval";
  List.iter
    (fun k -> Printf.printf "  %8d  %s\n" k (pp_time (point r "q9/eval-by-Q" k)))
    qsizes;
  Printf.printf "  linear vs pairwise reference:\n  %8s  %12s  %12s  %8s\n" "|D|"
    "linear" "pairwise" "ratio";
  List.iter
    (fun n ->
      let f = point r "q9/fast-eval" n and s = point r "q9/naive-eval" n in
      Printf.printf "  %8d  %s    %s  %s\n" n (pp_time f) (pp_time s)
        (pp_ratio (s /. f)))
    nsizes;
  Printf.printf
    "  shape: per-doubling growth - by-D %.2fx (linear=2), by-Q %.2fx (linear=2), \
     pairwise %.2fx (quadratic=4)\n"
    (avg (growth (List.map (point r "q9/eval-by-D") sizes)))
    (avg (growth (List.map (point r "q9/eval-by-Q") qsizes)))
    (avg (growth (List.map (point r "q9/naive-eval") nsizes)))

(* --- C31: content checking is per-entry --------------------------------- *)

let exp_c31 () =
  header "C31  content-schema checking (Section 3.1)"
    "claim: content legality is a per-entry test; total time is linear in\n\
     |D| with a constant per-entry cost.";
  let sizes = [ 1000; 2000; 4000; 8000 ] in
  let t =
    Test.make_indexed ~name:"content" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           fun () -> ignore (Content_legality.check WP.schema inst)))
  in
  let r = run_test (Test.make_grouped ~name:"c31" [ t ]) in
  Printf.printf "  %8s  %12s  %14s\n" "|D|" "total" "per entry";
  List.iter
    (fun n ->
      let total = point r "c31/content" n in
      Printf.printf "  %8d  %s   %s\n" n (pp_time total)
        (pp_time (total /. float_of_int n)))
    sizes;
  Printf.printf "  shape: per-doubling growth %.2fx (linear=2)\n"
    (avg (growth (List.map (point r "c31/content") sizes)))

(* --- A1: value-index ablation -------------------------------------------- *)

let exp_a1 () =
  header "A1   value-index ablation (engineering, cf. the paper's Section 7 outlook)"
    "claim: a secondary (attribute,value) index answers the atomic\n\
     (objectClass=c) selections of the Figure-4 queries below the scan cost.";
  let sizes = [ 2000; 4000; 8000; 16000 ] in
  let q = Query.select_class (Oclass.of_string "researcher") in
  let scan =
    Test.make_indexed ~name:"scan" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           fun () -> ignore (Eval.eval ix q)))
  in
  let indexed =
    Test.make_indexed ~name:"vindex" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           let vx = Vindex.create ix in
           fun () -> ignore (Eval.eval ~vindex:vx ix q)))
  in
  let r = run_test (Test.make_grouped ~name:"a1" [ scan; indexed ]) in
  Printf.printf "  %8s  %12s  %12s  %8s\n" "|D|" "scan" "vindex" "speedup";
  List.iter
    (fun n ->
      let s = point r "a1/scan" n and v = point r "a1/vindex" n in
      Printf.printf "  %8d  %s    %s  %s\n" n (pp_time s) (pp_time v)
        (pp_ratio (s /. v)))
    sizes

(* --- A2: monitor throughput ----------------------------------------------- *)

let exp_a2 () =
  header "A2   monitor throughput (Section 4 in practice)"
    "claim: a guarded directory absorbs single-entry transactions at a\n\
     rate independent of directory size.";
  let sizes = [ 1000; 4000; 16000 ] in
  let t =
    Test.make_indexed ~name:"insert-delete" ~args:sizes (fun n ->
        Staged.stage
          (let base = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let m = Result.get_ok (Monitor.create WP.schema base) in
           let unit =
             Bounds_model.Instance.fold
               (fun e acc ->
                 if Entry.has_class e (Oclass.of_string "orgunit") then
                   Some (Entry.id e)
                 else acc)
               base None
             |> Option.get
           in
           let counter = ref 0 in
           fun () ->
             incr counter;
             let id = 1_000_000 + !counter in
             let delta =
               Bounds_model.Instance.add_root_exn
                 (Entry.make ~id
                    ~rdn:(Printf.sprintf "uid=bench%d" id)
                    ~classes:(Oclass.set_of_list [ "person"; "top" ])
                    [
                      ( Attr.of_string "uid",
                        Value.String (Printf.sprintf "bench%d" id) );
                      (Attr.of_string "name", Value.String "bench");
                    ])
                 Bounds_model.Instance.empty
             in
             let m', _ =
               Result.get_ok (Monitor.insert_subtree ~parent:(Some unit) delta m)
             in
             ignore (Result.get_ok (Monitor.delete_subtree id m'))))
  in
  let r = run_test (Test.make_grouped ~name:"a2" [ t ]) in
  Printf.printf "  %8s  %16s  %14s\n" "|D|" "insert+delete" "transactions/s";
  List.iter
    (fun n ->
      let ns = point r "a2/insert-delete" n in
      Printf.printf "  %8d  %s      %14.0f\n" n (pp_time ns) (1e9 /. ns))
    sizes

(* --- A3: schema-aware query simplification --------------------------------- *)

let exp_a3 () =
  header "A3   schema-aware query simplification (Section 7 outlook)"
    "claim: saturated schema knowledge lets legality-style queries be\n\
     answered statically - the Figure-4 queries of the schema's own\n\
     elements simplify to the empty query without touching the instance.";
  let inf = Inference.saturate WP.schema in
  let obligations = Translate.all WP.schema.Schema.structure in
  let queries =
    List.filter_map
      (fun (_, q, expect) ->
        match expect with Translate.Must_be_empty -> Some q | _ -> None)
      obligations
  in
  let sizes = [ 2000; 8000 ] in
  let plain =
    Test.make_indexed ~name:"evaluate" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           fun () -> List.iter (fun q -> ignore (Eval.eval ix q)) queries))
  in
  let optimized =
    Test.make_indexed ~name:"simplify+evaluate" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           let ix = Index.create inst in
           let qs = List.map (Optimize.simplify inf) queries in
           fun () -> List.iter (fun q -> ignore (Eval.eval ix q)) qs))
  in
  let r = run_test (Test.make_grouped ~name:"a3" [ plain; optimized ]) in
  let vanished =
    List.length
      (List.filter (fun q -> Optimize.is_empty_query (Optimize.simplify inf q)) queries)
  in
  Printf.printf "  %d of %d legality queries simplify to the empty query statically\n"
    vanished (List.length queries);
  Printf.printf "  %8s  %14s  %18s  %8s\n" "|D|" "evaluate" "simplify+evaluate"
    "speedup";
  List.iter
    (fun n ->
      let p = point r "a3/evaluate" n and o = point r "a3/simplify+evaluate" n in
      Printf.printf "  %8d  %s      %s     %s\n" n (pp_time p) (pp_time o)
        (pp_ratio (p /. o)))
    sizes

(* --- P1: legality engine scaling -------------------------------------------- *)

(* Full Legality.check over white-pages instances of doubling size.  With
   [json] the per-point estimates are written to BENCH_legality.json so
   the perf trajectory is machine-readable across PRs. *)
let exp_p1 ~smoke ~json () =
  header "P1   legality engine scaling (Theorem 3.1)"
    "claim: a full legality check (content, Figure-4 structure queries,\n\
     single-valued attributes and keys) stays linear in |D|.";
  let quota = if smoke then 0.05 else 0.4 in
  let sizes = if smoke then [ 200; 400 ] else [ 2000; 4000; 8000; 16000 ] in
  let by_size =
    Test.make_indexed ~name:"check" ~args:sizes (fun n ->
        Staged.stage
          (let inst = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
           fun () -> ignore (Legality.check WP.schema inst)))
  in
  let r = run_test ~quota (Test.make_grouped ~name:"p1" [ by_size ]) in
  Printf.printf "  %8s  %12s\n" "|D|" "check";
  List.iter
    (fun n -> Printf.printf "  %8d  %s\n" n (pp_time (point r "p1/check" n)))
    sizes;
  Printf.printf "  shape: per-doubling growth %.2fx (linear=2)\n"
    (avg (growth (List.map (point r "p1/check") sizes)));
  if json then begin
    let buf = Buffer.create 1024 in
    let j_num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P1\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf "  \"points\": [\n";
    List.iteri
      (fun i n ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"series\": \"size-sweep\", \"n\": %d, \"ns_per_run\": %s }%s\n"
             n
             (j_num (point r "p1/check" n))
             (if i = List.length sizes - 1 then "" else ",")))
      sizes;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_legality.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_legality.json (%d points)\n" (List.length sizes)
  end

(* --- P2: cost-based query planner ------------------------------------------ *)

(* Four evaluators over one mixed filter/chi query set — the specification
   interpreter (pairwise), the operator-at-a-time scan interpreter, the
   same interpreter with the equality/presence value index, and the
   cost-based planner (range + trigram access paths, selectivity-ordered
   conjunctions) — plus memoized vs unmemoized full structure legality.
   Extensional equality of all four evaluators is asserted before any
   timing.  With [json] the estimates land in BENCH_query.json. *)
let exp_p2 ~smoke ~json () =
  header "P2   cost-based query planner (Section 7 outlook, engineering)"
    "claim: compiling a query against the value-index snapshot (range and\n\
     trigram access paths, most-selective-first conjunctions, residual\n\
     verification) beats the interpreter on mixed filter/chi workloads,\n\
     and hash-consed obligation memoization does the same for full\n\
     structure-legality checks.";
  let quota = if smoke then 0.05 else 0.4 in
  let sizes = if smoke then [ 200; 400 ] else [ 1000; 2000; 4000; 8000 ] in
  let naive_sizes = if smoke then [ 200 ] else [ 1000; 2000 ] in
  let instance_of n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
  let at = Attr.of_string and cl = Oclass.of_string in
  (* the mixed query set: a selective conjunction with a Not residual, a
     range conjunction, a bare substring selection, and a Figure-4-shaped
     chi query whose inner selection is itself a conjunction *)
  let queries =
    [
      Query.Select
        (Filter.And
           [
             Filter.class_eq (cl "researcher");
             Filter.Present (at "mail");
             Filter.Not
               (Filter.Substr
                  (at "uid", { Filter.initial = None; any = [ "p1" ]; final = None }));
           ]);
      Query.Select
        (Filter.And
           [
             Filter.class_eq (cl "person");
             Filter.Ge (at "uid", "u20");
             Filter.Le (at "uid", "u40");
           ]);
      Query.Select
        (Filter.Substr
           (at "name", { Filter.initial = Some "name of u3"; any = []; final = None }));
      Query.Minus
        ( Query.select_class (cl "orggroup"),
          Query.Chi
            ( Query.Descendant,
              Query.select_class (cl "orggroup"),
              Query.Select
                (Filter.And
                   [ Filter.class_eq (cl "person"); Filter.Present (at "mail") ]) ) );
    ]
  in
  (* extensional equality of all four evaluators before timing anything *)
  let check_n = if smoke then 200 else 1000 in
  let () =
    let inst = instance_of check_n in
    let ix = Index.create inst in
    let vx = Vindex.create ix in
    List.iteri
      (fun i q ->
        let naive = List.sort compare (Naive_eval.eval inst q) in
        let scan = List.sort compare (Index.ids_of ix (Eval.eval ix q)) in
        let indexed =
          List.sort compare (Index.ids_of ix (Eval.eval ~vindex:vx ix q))
        in
        let planned = List.sort compare (Plan.eval_ids vx q) in
        if not (scan = naive && indexed = naive && planned = naive) then
          failwith
            (Printf.sprintf "P2: evaluators disagree on query %d at |D| = %d" i
               check_n))
      queries;
    Printf.printf
      "  extensional equality: naive = scan = indexed = planned on all %d queries\n"
      (List.length queries)
  in
  let naive =
    Test.make_indexed ~name:"naive" ~args:naive_sizes (fun n ->
        Staged.stage
          (let inst = instance_of n in
           fun () -> List.iter (fun q -> ignore (Naive_eval.eval inst q)) queries))
  in
  let scan =
    Test.make_indexed ~name:"scan" ~args:sizes (fun n ->
        Staged.stage
          (let ix = Index.create (instance_of n) in
           fun () -> List.iter (fun q -> ignore (Eval.eval ix q)) queries))
  in
  let indexed =
    Test.make_indexed ~name:"indexed" ~args:sizes (fun n ->
        Staged.stage
          (let ix = Index.create (instance_of n) in
           let vx = Vindex.create ix in
           fun () -> List.iter (fun q -> ignore (Eval.eval ~vindex:vx ix q)) queries))
  in
  let planned =
    Test.make_indexed ~name:"planned" ~args:sizes (fun n ->
        Staged.stage
          (let ix = Index.create (instance_of n) in
           let vx = Vindex.create ix in
           (* touch the lazy range/trigram structures once so the steady
              state, not the first-call build, is what gets timed *)
           List.iter (fun q -> ignore (Plan.eval vx q)) queries;
           fun () -> List.iter (fun q -> ignore (Plan.eval vx q)) queries))
  in
  (* full structure legality: hash-consed obligation memoization vs the
     direct per-obligation interpreter (the pre-planner baseline).  Both
     series get the prebuilt evaluation index; the memoized one also gets
     the value index — like the rank index, it is a snapshot-scoped
     structure a directory maintains across checks, not per-check work *)
  let sl_memo =
    Test.make_indexed ~name:"sl-memo" ~args:sizes (fun n ->
        Staged.stage
          (let inst = instance_of n in
           let ix = Index.create inst in
           let vx = Vindex.create ix in
           fun () ->
             ignore (Structure_legality.check ~index:ix ~vindex:vx WP.schema inst)))
  in
  let sl_nomemo =
    Test.make_indexed ~name:"sl-nomemo" ~args:sizes (fun n ->
        Staged.stage
          (let inst = instance_of n in
           let ix = Index.create inst in
           fun () ->
             ignore
               (Structure_legality.check ~index:ix ~memoize:false WP.schema inst)))
  in
  let r =
    run_test ~quota
      (Test.make_grouped ~name:"p2"
         [ naive; scan; indexed; planned; sl_memo; sl_nomemo ])
  in
  Printf.printf "  mixed filter/chi query set (%d queries per run):\n" (List.length queries);
  Printf.printf "  %8s  %12s  %12s  %12s  %12s  %13s\n" "|D|" "naive" "scan"
    "indexed" "planned" "indexed/plan";
  List.iter
    (fun n ->
      let nv = point r "p2/naive" n
      and s = point r "p2/scan" n
      and i = point r "p2/indexed" n
      and p = point r "p2/planned" n in
      Printf.printf "  %8d  %s    %s    %s    %s      %s\n" n (pp_time nv)
        (pp_time s) (pp_time i) (pp_time p)
        (pp_ratio (i /. p)))
    sizes;
  Printf.printf "  full structure legality on the same instances:\n";
  Printf.printf "  %8s  %12s  %12s  %13s\n" "|D|" "unmemoized" "memoized"
    "speedup";
  List.iter
    (fun n ->
      let u = point r "p2/sl-nomemo" n and m = point r "p2/sl-memo" n in
      Printf.printf "  %8d  %s    %s      %s\n" n (pp_time u) (pp_time m)
        (pp_ratio (u /. m)))
    sizes;
  let n_max = List.fold_left max 0 sizes in
  Printf.printf
    "  shape: per-doubling growth - planned %.2fx (linear=2); at |D| = %d the\n\
    \  planner runs %.2fx faster than the indexed interpreter and memoization\n\
    \  cuts structure legality by %.2fx\n"
    (avg (growth (List.map (point r "p2/planned") sizes)))
    n_max
    (point r "p2/indexed" n_max /. point r "p2/planned" n_max)
    (point r "p2/sl-nomemo" n_max /. point r "p2/sl-memo" n_max);
  if json then begin
    let buf = Buffer.create 1024 in
    let j_num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
    let j_ratio a b =
      if Float.is_nan a || Float.is_nan b then "null"
      else Printf.sprintf "%.3f" (a /. b)
    in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P2\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf "  \"queries\": [\n";
    List.iteri
      (fun i q ->
        Buffer.add_string buf
          (Printf.sprintf "    %S%s\n" (Query.to_string q)
             (if i = List.length queries - 1 then "" else ",")))
      queries;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf (Printf.sprintf "  \"max_size\": %d,\n" n_max);
    Buffer.add_string buf
      (Printf.sprintf "  \"planned_speedup_over_indexed\": %s,\n"
         (j_ratio (point r "p2/indexed" n_max) (point r "p2/planned" n_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"memo_speedup_structure_legality\": %s,\n"
         (j_ratio (point r "p2/sl-nomemo" n_max) (point r "p2/sl-memo" n_max)));
    Buffer.add_string buf "  \"points\": [\n";
    let points =
      List.map (fun n -> ("naive", n, point r "p2/naive" n)) naive_sizes
      @ List.concat_map
          (fun series ->
            List.map (fun n -> (series, n, point r ("p2/" ^ series) n)) sizes)
          [ "scan"; "indexed"; "planned"; "sl-memo"; "sl-nomemo" ]
    in
    List.iteri
      (fun i (series, n, ns) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"series\": \"%s\", \"n\": %d, \"ns_per_run\": %s }%s\n"
             series n (j_num ns)
             (if i = List.length points - 1 then "" else ",")))
      points;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_query.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_query.json (%d points)\n" (List.length points)
  end

(* --- P3: live sessions, incremental maintenance vs rebuild ------------------ *)

(* Interleaved update/query traffic against one directory.  Two layers:

   - snapshot maintenance in isolation: after a small transaction, patch
     the (index, vindex, memo) triple incrementally (Index.apply /
     Vindex.apply / Plan.memo_apply) vs rebuild all three from scratch,
     then answer the Figure-4 obligation query set from the result;
   - end-to-end sessions: Directory.apply (incremental legality + patched
     snapshot + migrated memo) vs the pre-facade flow of Monitor.apply
     followed by a fresh snapshot build, each followed by the same query
     batch.

   The incremental side is O(|Δ| + shifted interval) per transaction; the
   rebuild side pays O(|D|) per transaction, so the gap must widen
   linearly with |D|.  With [json] the estimates land in
   BENCH_session.json. *)
let exp_p3 ~smoke ~json () =
  header "P3   live directory sessions (incremental index maintenance)"
    "claim: patching the evaluation index by interval shifting (plus value\n\
     tables and query memo) makes an update-then-query tick O(|delta|),\n\
     while rebuild-per-update pays O(|D|) - same answers, widening gap.";
  let quota = if smoke then 0.05 else 0.4 in
  let sizes = if smoke then [ 200; 400 ] else [ 1000; 2000; 4000; 8000 ] in
  let instance_of n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
  let queries =
    List.map (fun (_, q, _) -> q) (Translate.all WP.schema.Schema.structure)
  in
  let setup n =
    let base = instance_of n in
    let unit =
      Bounds_model.Instance.fold
        (fun e acc ->
          if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
          else acc)
        base None
      |> Option.get
    in
    let victim =
      Bounds_model.Instance.fold
        (fun e acc ->
          if
            Entry.has_class e (Oclass.of_string "person")
            && Bounds_model.Instance.is_leaf base (Entry.id e)
          then Some (Entry.id e)
          else acc)
        base None
      |> Option.get
    in
    let mk_person id =
      Entry.make ~id
        ~rdn:(Printf.sprintf "uid=p3b%d" id)
        ~classes:(Oclass.set_of_list [ "person"; "top" ])
        [
          (Attr.of_string "uid", Value.String (Printf.sprintf "p3b%d" id));
          (Attr.of_string "name", Value.String "bench");
        ]
    in
    (* one small transaction: a two-entry subtree in (a sub-unit with one
       person, legal under the white-pages structure schema), one leaf
       out *)
    let mk_unit id =
      Entry.make ~id
        ~rdn:(Printf.sprintf "ou=p3b%d" id)
        ~classes:(Oclass.set_of_list [ "orgunit"; "orggroup"; "top" ])
        [ (Attr.of_string "ou", Value.String (Printf.sprintf "p3b%d" id)) ]
    in
    let ops =
      [
        Update.Insert { parent = Some unit; entry = mk_unit 2_000_000 };
        Update.Insert { parent = Some 2_000_000; entry = mk_person 2_000_001 };
        Update.Delete victim;
      ]
    in
    (base, ops)
  in
  (* answer equality at the smallest size before timing anything *)
  let () =
    let base, ops = List.hd sizes |> setup in
    let ix = Index.create base in
    let vx = Vindex.create ix in
    let memo = Plan.memo_create vx in
    Plan.prewarm memo queries;
    let b = Index.Builder.of_version ix in
    List.iter (Index.Builder.apply_op b) ops;
    let splices = Index.Builder.splices b in
    let ix' = Index.Builder.seal b in
    let vx' = Vindex.apply ~index:ix' ops vx in
    let memo' = Plan.memo_apply ~vindex:vx' ~splices ops memo in
    let final = Result.get_ok (Update.apply base ops) in
    let fresh_ix = Index.create final in
    let fresh_vx = Vindex.create fresh_ix in
    List.iteri
      (fun i q ->
        let inc = List.sort compare (Index.ids_of ix' (Plan.memo_eval memo' q)) in
        let reb =
          List.sort compare (Index.ids_of fresh_ix (Plan.eval fresh_vx q))
        in
        if inc <> reb then
          failwith
            (Printf.sprintf "P3: incremental and rebuilt snapshots disagree on query %d" i))
      queries;
    Printf.printf
      "  answer equality: patched and rebuilt snapshots agree on all %d queries\n"
      (List.length queries)
  in
  let snap_inc =
    Test.make_indexed ~name:"snap-incremental" ~args:sizes (fun n ->
        Staged.stage
          (let base, ops = setup n in
           let ix = Index.create base in
           let vx = Vindex.create ix in
           let memo = Plan.memo_create vx in
           Plan.prewarm memo queries;
           List.iter (fun q -> ignore (Plan.memo_eval memo q)) queries;
           fun () ->
             let b = Index.Builder.of_version ix in
             List.iter (Index.Builder.apply_op b) ops;
             let splices = Index.Builder.splices b in
             let ix' = Index.Builder.seal b in
             let vx' = Vindex.apply ~index:ix' ops vx in
             let memo' = Plan.memo_apply ~vindex:vx' ~splices ops memo in
             List.iter (fun q -> ignore (Plan.memo_eval memo' q)) queries))
  in
  let snap_reb =
    Test.make_indexed ~name:"snap-rebuild" ~args:sizes (fun n ->
        Staged.stage
          (let base, ops = setup n in
           fun () ->
             let final = Result.get_ok (Update.apply base ops) in
             let ix' = Index.create final in
             let vx' = Vindex.create ix' in
             let memo' = Plan.memo_create vx' in
             Plan.prewarm memo' queries;
             List.iter (fun q -> ignore (Plan.memo_eval memo' q)) queries))
  in
  let session =
    Test.make_indexed ~name:"session" ~args:sizes (fun n ->
        Staged.stage
          (let base, ops = setup n in
           let dir = Result.get_ok (Directory.open_ WP.schema base) in
           fun () ->
             let dir, _ = Directory.apply dir ops in
             List.iter (fun q -> ignore (Directory.query dir q)) queries))
  in
  let session_reb =
    Test.make_indexed ~name:"session-rebuild" ~args:sizes (fun n ->
        Staged.stage
          (let base, ops = setup n in
           let m = Result.get_ok (Monitor.create WP.schema base) in
           fun () ->
             let m, _ = Result.get_ok (Monitor.apply ops m) in
             let ix' = Index.create (Monitor.instance m) in
             let vx' = Vindex.create ix' in
             let memo' = Plan.memo_create vx' in
             Plan.prewarm memo' queries;
             List.iter (fun q -> ignore (Plan.memo_eval memo' q)) queries))
  in
  let r =
    run_test ~quota
      (Test.make_grouped ~name:"p3" [ snap_inc; snap_reb; session; session_reb ])
  in
  Printf.printf
    "  snapshot maintenance per transaction (patch vs rebuild, then %d queries):\n"
    (List.length queries);
  Printf.printf "  %8s  %13s  %13s  %8s\n" "|D|" "incremental" "rebuild" "speedup";
  List.iter
    (fun n ->
      let i = point r "p3/snap-incremental" n and b = point r "p3/snap-rebuild" n in
      Printf.printf "  %8d  %s     %s  %s\n" n (pp_time i) (pp_time b)
        (pp_ratio (b /. i)))
    sizes;
  Printf.printf "  end-to-end sessions (legality + snapshot + queries):\n";
  Printf.printf "  %8s  %13s  %16s  %8s\n" "|D|" "Directory" "monitor+rebuild"
    "speedup";
  List.iter
    (fun n ->
      let s = point r "p3/session" n and b = point r "p3/session-rebuild" n in
      Printf.printf "  %8d  %s     %s     %s\n" n (pp_time s) (pp_time b)
        (pp_ratio (b /. s)))
    sizes;
  let n_max = List.fold_left max 0 sizes in
  Printf.printf
    "  shape: per-doubling growth - incremental %.2fx (flat=1), rebuild %.2fx\n\
    \  (linear=2); at |D| = %d the live session answers an update-and-query\n\
    \  tick %.2fx faster than rebuild-per-update\n"
    (avg (growth (List.map (point r "p3/snap-incremental") sizes)))
    (avg (growth (List.map (point r "p3/snap-rebuild") sizes)))
    n_max
    (point r "p3/session-rebuild" n_max /. point r "p3/session" n_max);
  if json then begin
    let buf = Buffer.create 1024 in
    let j_num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
    let j_ratio a b =
      if Float.is_nan a || Float.is_nan b then "null"
      else Printf.sprintf "%.3f" (a /. b)
    in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P3\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf
      (Printf.sprintf "  \"queries_per_tick\": %d,\n" (List.length queries));
    Buffer.add_string buf (Printf.sprintf "  \"max_size\": %d,\n" n_max);
    Buffer.add_string buf
      (Printf.sprintf "  \"snapshot_incremental_speedup\": %s,\n"
         (j_ratio (point r "p3/snap-rebuild" n_max)
            (point r "p3/snap-incremental" n_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"session_incremental_speedup\": %s,\n"
         (j_ratio (point r "p3/session-rebuild" n_max)
            (point r "p3/session" n_max)));
    Buffer.add_string buf "  \"points\": [\n";
    let points =
      List.concat_map
        (fun series ->
          List.map (fun n -> (series, n, point r ("p3/" ^ series) n)) sizes)
        [ "snap-incremental"; "snap-rebuild"; "session"; "session-rebuild" ]
    in
    List.iteri
      (fun i (series, n, ns) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"series\": \"%s\", \"n\": %d, \"ns_per_run\": %s }%s\n"
             series n (j_num ns)
             (if i = List.length points - 1 then "" else ",")))
      points;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_session.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_session.json (%d points)\n" (List.length points)
  end

(* --- P4: durable sessions, WAL append vs rewrite-per-transaction ------------ *)

(* Remove an earlier bench run's store files (and P4's strawman
   snapshot) so [Store.init] finds no marker. *)
let clear_store io =
  List.iter io.Sio.remove
    [ Store.schema_file; Store.checkpoint_file; Store.wal_file; "snapshot.ldif" ]

(* A cleared store directory under the system temp dir.  fsync is off by
   default: P4/P5/P7 measure the WAL-vs-rewrite and replay shapes, not
   disk sync latency — P6 and P9 turn it on. *)
let bench_io ?(fsync = false) name =
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) ("bounds-bench-" ^ name)
  in
  let io = Sio.real ~fsync ~root () in
  clear_store io;
  io

(* Durability has two costs the WAL design trades between: the per-
   transaction cost of making an accepted transaction durable, and the
   recovery cost of reopening after a crash.

   - per transaction: the store appends one CRC-framed record, O(|delta|)
     bytes, however large the directory; the strawman that rewrites the
     full LDIF snapshot after every transaction pays O(|D|).
   - recovery: checkpoint load is O(|D|) and tail replay is O(records),
     so recovery grows linearly in the log length between checkpoints -
     which is exactly what [checkpoint] (compaction) bounds.

   Both sides run against real files ([Io.real]) in the system temp
   directory.  With [json] the estimates land in BENCH_store.json. *)
let exp_p4 ~smoke ~json () =
  header "P4   durable sessions (write-ahead log vs rewrite-per-transaction)"
    "claim: on top of the in-memory session tick, one framed WAL append\n\
     adds O(|delta|) durability overhead independent of |D|; rewriting the\n\
     snapshot adds O(|D|).  Recovery replays the tail, so compaction bounds it.";
  let quota = if smoke then 0.05 else 0.4 in
  let sizes = if smoke then [ 200; 400 ] else [ 1000; 2000; 4000; 8000 ] in
  let instance_of n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
  let find_unit base =
    Bounds_model.Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
        else acc)
      base None
    |> Option.get
  in
  let mk_person id =
    Entry.make ~id
      ~rdn:(Printf.sprintf "uid=p4b%d" id)
      ~classes:(Oclass.set_of_list [ "person"; "top" ])
      [
        (Attr.of_string "uid", Value.String (Printf.sprintf "p4b%d" id));
        (Attr.of_string "name", Value.String "bench");
      ]
  in
  (* round-trip equality at the smallest size before timing anything *)
  let () =
    let base = instance_of (List.hd sizes) in
    let unit = find_unit base in
    let io = bench_io "p4check" in
    let st = Result.get_ok (Store.init io WP.schema base) in
    let ops = [ Update.Insert { parent = Some unit; entry = mk_person 3_000_000 } ] in
    ignore (Store.apply st ops);
    Store.close st;
    let st', report = Result.get_ok (Store.open_ io) in
    let twin =
      Result.get_ok (Update.apply base ops)
    in
    if not (Bounds_model.Instance.equal (Directory.instance (Store.directory st')) twin)
    then failwith "P4: recovered store disagrees with in-memory twin";
    if report.Store.tail <> Store.Clean then failwith "P4: clean log recovered as damaged";
    Store.close st';
    Printf.printf
      "  answer equality: recovered store agrees with the in-memory twin\n"
  in
  (* one durable tick: insert a fresh person, then delete it - two accepted
     transactions, state returns to base, durability paid twice.  The
     in-memory series runs the same tick with no persistence at all: the
     shared baseline both durability strategies pay on top of. *)
  let mem =
    Test.make_indexed ~name:"in-memory" ~args:sizes (fun n ->
        Staged.stage
          (let base = instance_of n in
           let unit = find_unit base in
           let dir = Result.get_ok (Directory.open_ WP.schema base) in
           let ins = [ Update.Insert { parent = Some unit; entry = mk_person 3_000_000 } ] in
           let del = [ Update.Delete 3_000_000 ] in
           fun () ->
             let d1, _ = Directory.apply dir ins in
             ignore (Directory.apply d1 del)))
  in
  let wal =
    Test.make_indexed ~name:"wal-append" ~args:sizes (fun n ->
        Staged.stage
          (let base = instance_of n in
           let unit = find_unit base in
           let io = bench_io (Printf.sprintf "p4w%d" n) in
           let st = Result.get_ok (Store.init io WP.schema base) in
           let ins = [ Update.Insert { parent = Some unit; entry = mk_person 3_000_000 } ] in
           let del = [ Update.Delete 3_000_000 ] in
           fun () ->
             ignore (Store.apply st ins);
             ignore (Store.apply st del)))
  in
  let rewrite =
    Test.make_indexed ~name:"snapshot-rewrite" ~args:sizes (fun n ->
        Staged.stage
          (let base = instance_of n in
           let unit = find_unit base in
           let io = bench_io (Printf.sprintf "p4r%d" n) in
           let dir = Result.get_ok (Directory.open_ WP.schema base) in
           let ins = [ Update.Insert { parent = Some unit; entry = mk_person 3_000_000 } ] in
           let del = [ Update.Delete 3_000_000 ] in
           fun () ->
             let d1, _ = Directory.apply dir ins in
             io.Sio.write "snapshot.ldif"
               (Bounds_codec.Ldif.to_string (Directory.instance d1));
             let d2, _ = Directory.apply d1 del in
             io.Sio.write "snapshot.ldif"
               (Bounds_codec.Ldif.to_string (Directory.instance d2))))
  in
  (* recovery sweep: fixed |D|, growing log tail *)
  let rec_n = if smoke then 200 else 2000 in
  let tails = if smoke then [ 4; 16 ] else [ 0; 64; 256; 1024 ] in
  let recover =
    Test.make_indexed ~name:"recover" ~args:tails (fun k ->
        Staged.stage
          (let base = instance_of rec_n in
           let unit = find_unit base in
           let io = bench_io (Printf.sprintf "p4rec%d" k) in
           let st = Result.get_ok (Store.init io WP.schema base) in
           for i = 0 to k - 1 do
             ignore
               (Store.apply st
                  [ Update.Insert { parent = Some unit; entry = mk_person (3_000_000 + i) } ])
           done;
           Store.close st;
           (* the checked path: P4's linear-tail claim is about
              re-admitting replay; P5 owns the trusted comparison *)
           fun () ->
             let st', _ = Result.get_ok (Store.Private.open_checked io) in
             Store.close st'))
  in
  let r =
    run_test ~quota (Test.make_grouped ~name:"p4" [ mem; wal; rewrite; recover ])
  in
  (* ratio of a durable tick to the shared in-memory tick: the WAL should
     track the baseline (durability overhead within noise), the rewrite
     strawman should sit a widening factor above it *)
  let ratio series n = point r ("p4/" ^ series) n /. point r "p4/in-memory" n in
  Printf.printf
    "  durability per tick (insert + delete, each made durable on accept):\n";
  Printf.printf "  %8s  %13s  %13s  %13s  %8s  %8s\n" "|D|" "in-memory"
    "wal-append" "rewrite" "wal/mem" "rw/mem";
  List.iter
    (fun n ->
      let m = point r "p4/in-memory" n
      and w = point r "p4/wal-append" n
      and s = point r "p4/snapshot-rewrite" n in
      Printf.printf "  %8d  %s     %s     %s  %s  %s\n" n (pp_time m)
        (pp_time w) (pp_time s)
        (pp_ratio (w /. m))
        (pp_ratio (s /. m)))
    sizes;
  Printf.printf "  recovery time vs log tail length (|D| = %d):\n" rec_n;
  Printf.printf "  %8s  %13s\n" "records" "recovery";
  List.iter
    (fun k -> Printf.printf "  %8d  %s\n" k (pp_time (point r "p4/recover" k)))
    tails;
  let n_max = List.fold_left max 0 sizes in
  let k_max = List.fold_left max 0 tails and k_min = List.fold_left min max_int tails in
  Printf.printf
    "  shape: the WAL tick tracks the in-memory tick (ratio %.2f at\n\
    \  |D| = %d - durability overhead within noise), the rewrite tick sits\n\
    \  %.2fx above it; at |D| = %d the WAL makes a tick durable %.2fx faster\n\
    \  than rewriting; a %d-record tail costs %.2fx the %d-record recovery -\n\
    \  checkpointing (compaction) is what keeps that factor small\n"
    (ratio "wal-append" n_max) n_max
    (ratio "snapshot-rewrite" n_max) n_max
    (point r "p4/snapshot-rewrite" n_max /. point r "p4/wal-append" n_max)
    k_max
    (point r "p4/recover" k_max /. point r "p4/recover" k_min)
    k_min;
  if json then begin
    let buf = Buffer.create 1024 in
    let j_num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
    let j_ratio a b =
      if Float.is_nan a || Float.is_nan b then "null"
      else Printf.sprintf "%.3f" (a /. b)
    in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P4\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf (Printf.sprintf "  \"max_size\": %d,\n" n_max);
    Buffer.add_string buf (Printf.sprintf "  \"recovery_size\": %d,\n" rec_n);
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_speedup\": %s,\n"
         (j_ratio (point r "p4/snapshot-rewrite" n_max)
            (point r "p4/wal-append" n_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"wal_over_memory\": %s,\n"
         (j_ratio (point r "p4/wal-append" n_max) (point r "p4/in-memory" n_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"rewrite_over_memory\": %s,\n"
         (j_ratio (point r "p4/snapshot-rewrite" n_max)
            (point r "p4/in-memory" n_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"recovery_tail_factor\": %s,\n"
         (j_ratio (point r "p4/recover" k_max) (point r "p4/recover" k_min)));
    Buffer.add_string buf "  \"points\": [\n";
    let points =
      List.concat_map
        (fun (series, args) ->
          List.map (fun n -> (series, n, point r ("p4/" ^ series) n)) args)
        [
          ("in-memory", sizes);
          ("wal-append", sizes);
          ("snapshot-rewrite", sizes);
          ("recover", tails);
        ]
    in
    List.iteri
      (fun i (series, n, ns) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"series\": \"%s\", \"n\": %d, \"ns_per_run\": %s }%s\n"
             series n (j_num ns)
             (if i = List.length points - 1 then "" else ",")))
      points;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_store.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_store.json (%d points)\n" (List.length points)
  end

(* --- P5: trusted replay and streaming bulk ingest --------------------------- *)

(* Recovery re-admission is the tail's dominant cost: the checked path
   pays O(|D|) legality work per replayed record, the trusted path
   (records were admitted before acknowledgement; the CRC frame vouches
   the bytes) folds the tail into the checkpoint's instance and builds
   the session once.  Ingest likewise: a bulk load
   streams entries into one index build and one admission check instead
   of a full transactional round-trip per entry. *)
let exp_p5 ~smoke ~json () =
  header "P5   trusted replay and streaming bulk ingest"
    "claim: logged records passed admission when first acknowledged, so\n\
     replay may skip legality checks - recovery becomes decode + state\n\
     maintenance, O(|D| + delta) not O(delta x re-admission); bulk load\n\
     pays one admission check for the whole dump, not one per entry.";
  let quota = if smoke then 0.05 else 0.4 in
  let rec_n = if smoke then 200 else 2000 in
  let tails = if smoke then [ 4; 16 ] else [ 64; 256; 1024 ] in
  let batches = if smoke then [ 100; 400 ] else [ 1000; 4000 ] in
  let seed_n = if smoke then 100 else 200 in
  let instance_of n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 () in
  let find_unit base =
    Bounds_model.Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
        else acc)
      base None
    |> Option.get
  in
  let mk_person id =
    Entry.make ~id
      ~rdn:(Printf.sprintf "uid=p5b%d" id)
      ~classes:(Oclass.set_of_list [ "person"; "top" ])
      [
        (Attr.of_string "uid", Value.String (Printf.sprintf "p5b%d" id));
        (Attr.of_string "name", Value.String "bench");
      ]
  in
  (* prepare a store directory with a k-record tail, once per series arg *)
  let prepared name k =
    let base = instance_of rec_n in
    let unit = find_unit base in
    let io = bench_io (Printf.sprintf "%s%d" name k) in
    let st = Result.get_ok (Store.init io WP.schema base) in
    for i = 0 to k - 1 do
      ignore
        (Store.apply st
                 [ Update.Insert { parent = Some unit; entry = mk_person (4_000_000 + i) } ])
    done;
    Store.close st;
    io
  in
  (* answer equality before timing anything: the same tail recovered
     through both engines lands on the same instance *)
  let () =
    let io = prepared "p5check" (List.hd tails) in
    let open_with open_ =
      let st, report = Result.get_ok (open_ io) in
      if report.Store.tail <> Store.Clean then
        failwith "P5: clean log recovered as damaged";
      let i = Directory.instance (Store.directory st) in
      Store.close st;
      i
    in
    let checked = open_with Store.Private.open_checked in
    if
      not
        (Bounds_model.Instance.equal checked
           (open_with (fun io -> Store.open_ io)))
    then failwith "P5: trusted recovery diverged";
    Printf.printf
      "  answer equality: checked and trusted recovery agree on the\n\
      \  recovered instance\n"
  in
  let recover name open_ =
    Test.make_indexed ~name ~args:tails (fun k ->
        Staged.stage
          (let io = prepared name k in
           fun () ->
             let st, _ = Result.get_ok (open_ io) in
             Store.close st))
  in
  let rec_checked = recover "recover-checked" Store.Private.open_checked in
  let rec_trusted = recover "recover-trusted" (fun io -> Store.open_ io) in
  (* ingest m entries into a small seed store: streaming bulk load with
     one final admission check, vs one logged transaction per entry
     (both end checkpointed, so the durable end states match) *)
  let load_bulk =
    Test.make_indexed ~name:"load-bulk" ~args:batches (fun m ->
        Staged.stage
          (let base = instance_of seed_n in
           let unit = find_unit base in
           let io = bench_io (Printf.sprintf "p5lb%d" m) in
           fun () ->
             clear_store io;
             let st = Result.get_ok (Store.init io WP.schema base) in
             let n =
               Result.get_ok
                 (Store.load st (fun add ->
                      let rec go i =
                        if i = m then Ok ()
                        else
                          match
                            add ~parent:(Some unit) (mk_person (4_000_000 + i))
                          with
                          | Ok () -> go (i + 1)
                          | Error _ as e -> e
                      in
                      go 0))
             in
             assert (n = m);
             Store.close st))
  in
  let load_apply =
    Test.make_indexed ~name:"load-apply" ~args:batches (fun m ->
        Staged.stage
          (let base = instance_of seed_n in
           let unit = find_unit base in
           let io = bench_io (Printf.sprintf "p5la%d" m) in
           fun () ->
             clear_store io;
             let st = Result.get_ok (Store.init io WP.schema base) in
             for i = 0 to m - 1 do
               ignore
                 (Store.apply st
                 [
                         Update.Insert
                           { parent = Some unit; entry = mk_person (4_000_000 + i) };
                       ])
             done;
             Store.checkpoint st;
             Store.close st))
  in
  let r =
    run_test ~quota
      (Test.make_grouped ~name:"p5"
         [ rec_checked; rec_trusted; load_bulk; load_apply ])
  in
  let p series n = point r ("p5/" ^ series) n in
  let k_max = List.fold_left max 0 tails
  and k_min = List.fold_left min max_int tails in
  let m_max = List.fold_left max 0 batches in
  Printf.printf "  recovery of a k-record tail (|D| = %d):\n" rec_n;
  Printf.printf "  %8s  %13s  %13s  %9s\n" "records" "checked" "trusted"
    "chk/trust";
  List.iter
    (fun k ->
      Printf.printf "  %8d  %s     %s  %s\n" k
        (pp_time (p "recover-checked" k))
        (pp_time (p "recover-trusted" k))
        (pp_ratio (p "recover-checked" k /. p "recover-trusted" k)))
    tails;
  Printf.printf "  ingest of m entries into a %d-entry store:\n" seed_n;
  Printf.printf "  %8s  %13s  %13s  %9s\n" "entries" "per-entry" "bulk-load"
    "ratio";
  List.iter
    (fun m ->
      Printf.printf "  %8d  %s     %s  %s\n" m
        (pp_time (p "load-apply" m))
        (pp_time (p "load-bulk" m))
        (pp_ratio (p "load-apply" m /. p "load-bulk" m)))
    batches;
  Printf.printf
    "  shape: trusted replay recovers the %d-record tail %.1fx faster than\n\
    \  checked re-admission (%.1fx at %d records); bulk load ingests %d\n\
    \  entries %.1fx faster than per-entry transactions\n"
    k_max
    (p "recover-checked" k_max /. p "recover-trusted" k_max)
    (p "recover-checked" k_min /. p "recover-trusted" k_min)
    k_min m_max
    (p "load-apply" m_max /. p "load-bulk" m_max);
  if json then begin
    let buf = Buffer.create 1024 in
    let j_num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
    let j_ratio a b =
      if Float.is_nan a || Float.is_nan b then "null"
      else Printf.sprintf "%.3f" (a /. b)
    in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P5\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf (Printf.sprintf "  \"recovery_size\": %d,\n" rec_n);
    Buffer.add_string buf (Printf.sprintf "  \"max_tail\": %d,\n" k_max);
    Buffer.add_string buf (Printf.sprintf "  \"max_batch\": %d,\n" m_max);
    Buffer.add_string buf
      (Printf.sprintf "  \"recovery_speedup\": %s,\n"
         (j_ratio (p "recover-checked" k_max) (p "recover-trusted" k_max)));
    Buffer.add_string buf
      (Printf.sprintf "  \"load_speedup\": %s,\n"
         (j_ratio (p "load-apply" m_max) (p "load-bulk" m_max)));
    Buffer.add_string buf "  \"points\": [\n";
    let points =
      List.concat_map
        (fun (series, args) -> List.map (fun n -> (series, n, p series n)) args)
        [
          ("recover-checked", tails);
          ("recover-trusted", tails);
          ("load-apply", batches);
          ("load-bulk", batches);
        ]
    in
    List.iteri
      (fun i (series, n, ns) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"series\": \"%s\", \"n\": %d, \"ns_per_run\": %s }%s\n"
             series n (j_num ns)
             (if i = List.length points - 1 then "" else ",")))
      points;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_ingest.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_ingest.json (%d points)\n" (List.length points)
  end

(* --- P6: the wire-facing server and group commit -------------------------- *)

(* Durable throughput is fsync-bound: one transaction per fsync caps the
   commit rate near 1/t_fsync however cheap admission is.  Group commit
   appends a whole admitted batch in one I/O and shares one fsync, so
   throughput should scale with batch size until admission cost takes
   over.  Measured wall-clock (not bechamel): each point is a complete
   store lifetime — init, commit stream, close — and the server points
   drive real sockets, so per-run OLS would mostly fit setup noise. *)
let exp_p6 ~smoke ~json () =
  let module Server = Bounds_net.Server in
  let module Client = Bounds_net.Client in
  let module Proto = Bounds_net.Proto in
  let module Traffic = Bounds_workload.Traffic in
  header "P6   concurrent server: group commit and snapshot-isolated reads"
    "claim: one shared fsync amortizes durability across a batch of\n\
     admitted transactions (>= 2x past batch size 4 with fsync on);\n\
     the server sustains concurrent clients, readers on immutable\n\
     snapshots, writers coalesced into shared commits.";
  (* per-transaction admission is O(|D|) (P1/P4's story), so a long
     insert stream buries the fsync under admission cost; the stream is
     kept short so the point being measured — one fsync shared across a
     batch — stays the dominant term *)
  let txns_total = if smoke then 64 else 128 in
  let batch_sizes = [ 1; 2; 4; 8; 16 ] in
  let client_counts = if smoke then [ 1; 4; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let requests_per_client = if smoke then 25 else 150 in
  let find_unit base =
    Bounds_model.Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
        else acc)
      base None
    |> Option.get
  in
  let mk_person id =
    Entry.make ~id
      ~rdn:(Printf.sprintf "uid=p6b%d" id)
      ~classes:(Oclass.set_of_list [ "person"; "top" ])
      [
        (Attr.of_string "uid", Value.String (Printf.sprintf "p6b%d" id));
        (Attr.of_string "name", Value.String "bench");
      ]
  in
  (* a fresh store on real files, small |D| so fsync dominates admission *)
  let fresh_store ~fsync name =
    let io = bench_io ~fsync name in
    let base = WP.generate ~seed:6 ~units:3 ~persons_per_unit:3 () in
    let st = Result.get_ok (Store.init io WP.schema base) in
    (st, find_unit base, Bounds_model.Instance.size base)
  in
  (* commit [txns_total] single-insert transactions in groups of [b];
     b = 1 is the unbatched baseline (plain applies, one fsync each) *)
  let commit_rate ~fsync b =
    let best = ref 0. in
    for rep = 0 to 2 do
      let st, unit, _ =
        fresh_store ~fsync (Printf.sprintf "p6gc%b-%d-%d" fsync b rep)
      in
      let t0 = Unix.gettimeofday () in
      let i = ref 0 in
      while !i < txns_total do
        let k = min b (txns_total - !i) in
        let run () =
          for j = 0 to k - 1 do
            ignore
              (Store.apply st
                 [
                      Update.Insert
                        { parent = Some unit; entry = mk_person (5_000_000 + !i + j) };
                    ])
          done
        in
        if b = 1 then run () else ignore (Store.batch st run);
        i := !i + k
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Store.close st;
      best := Float.max !best (float_of_int txns_total /. dt)
    done;
    !best
  in
  let gc_fsync = List.map (fun b -> (b, commit_rate ~fsync:true b)) batch_sizes in
  let gc_nofsync =
    List.map (fun b -> (b, commit_rate ~fsync:false b)) batch_sizes
  in
  let rate_at l b = List.assoc b l in
  Printf.printf "  group commit, %d single-insert txns (store-level, real files):\n"
    txns_total;
  Printf.printf "  %8s  %14s  %14s  %9s\n" "batch" "fsync on" "fsync off"
    "on-gain";
  List.iter
    (fun b ->
      Printf.printf "  %8d  %9.0f tx/s  %9.0f tx/s  %s\n" b (rate_at gc_fsync b)
        (rate_at gc_nofsync b)
        (pp_ratio (rate_at gc_fsync b /. rate_at gc_fsync 1)))
    batch_sizes;
  (* the server: mixed traffic from concurrent clients, fsync on.  The
     daemon runs in a child process, forked before it starts any
     thread, so that its handler threads and the client threads do not
     share one runtime lock; the child sends its port back over a
     pipe with the CPU seconds its setup took.  The commit counters
     come over the wire through [stats], and the daemon's CPU seconds
     from [Unix.times] once it is reaped; less its setup, that is the
     CPU the traffic, the stats request and the shutdown cost it. *)
  let serve_point ~fsync clients =
    let r, w = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
        (* the child never returns into the harness *)
        let cpu () =
          let t = Unix.times () in
          t.Unix.tms_utime +. t.Unix.tms_stime
        in
        Unix._exit
          (try
             Unix.close r;
             let st, _, _ =
               fresh_store ~fsync (Printf.sprintf "p6srv%b-%d" fsync clients)
             in
             let srv = Server.start ~port:0 ~batch_max:64 st in
             let oc = Unix.out_channel_of_descr w in
             Printf.fprintf oc "%d %.6f\n%!" (Server.port srv) (cpu ());
             close_out oc;
             Server.wait srv;
             Store.close st;
             0
           with e ->
             prerr_endline ("P6 daemon: " ^ Printexc.to_string e);
             1)
    | pid ->
        let child_cpu () =
          let t = Unix.times () in
          t.Unix.tms_cutime +. t.Unix.tms_cstime
        in
        let cpu0 = child_cpu () in
        (* a failed point leaves no daemon behind *)
        let fail msg =
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          failwith msg
        in
        Unix.close w;
        let port, setup_cpu =
          let ic = Unix.in_channel_of_descr r in
          let line = In_channel.input_line ic in
          close_in ic;
          match
            Option.bind line (fun l ->
                Scanf.sscanf_opt l "%d %f" (fun p c -> (p, c)))
          with
          | Some pc -> pc
          | None -> fail "P6: the daemon exited before listening"
        in
        let report =
          match
            Traffic.run ~port ~clients ~requests:requests_per_client
              ~write_ratio:0.25 ~seed:(1 + clients)
              ~tag:(Printf.sprintf "p6c%d" clients)
              ()
          with
          | Ok r -> r
          | Error e -> fail ("P6 traffic: " ^ e)
        in
        let commits =
          match Client.connect ~port ~retries:10 () with
          | Error e -> fail ("P6 stats: " ^ e)
          | Ok c ->
              let stats =
                match Client.request c Proto.Stats with
                | Ok (Proto.Reply body) -> String.split_on_char '\n' body
                | _ -> fail "P6: stats refused"
              in
              let stat name =
                List.find_map
                  (fun l -> Scanf.sscanf_opt l (name ^^ " %d") Fun.id)
                  stats
                |> Option.get
              in
              ignore (Client.request c Proto.Shutdown);
              Client.close c;
              (stat "batches", stat "batched")
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "P6: the daemon did not exit cleanly");
        (report, commits, child_cpu () -. cpu0 -. setup_cpu)
  in
  let served = List.map (fun c -> (c, serve_point ~fsync:true c)) client_counts in
  let max_clients = List.fold_left max 0 client_counts in
  let nofsync_report, _, nofsync_cpu = serve_point ~fsync:false max_clients in
  (* the daemon's CPU seconds per wall second of traffic: near 1, it is
     saturated on the one core its runtime lock lets it use *)
  let cpu_share (r : Traffic.report) cpu = cpu /. r.Traffic.elapsed in
  Printf.printf
    "  served mixed traffic, %d requests/client, 25%% writes (fsync on):\n"
    requests_per_client;
  Printf.printf "  %8s  %11s  %9s  %9s  %9s  %9s  %9s  %9s  %9s\n" "clients"
    "req/s" "mean ms" "p50 ms" "p95 ms" "N/X ms" "commits" "txns" "srv cpu";
  List.iter
    (fun (c, ((r : Traffic.report), (batches, batched), cpu)) ->
      Printf.printf "  %8d  %11.0f  %9.3f  %9.3f  %9.3f  %9.3f  %9d  %9d  %9.2f\n"
        c (Traffic.throughput r) r.Traffic.mean_ms r.Traffic.p50_ms
        r.Traffic.p95_ms
        (1000. *. float_of_int c /. Traffic.throughput r)
        batches batched (cpu_share r cpu))
    served;
  let r_max, (batches_max, batched_max), _ = List.assoc max_clients served in
  let txns_per_commit =
    if batches_max = 0 then 0.
    else float_of_int batched_max /. float_of_int batches_max
  in
  Printf.printf
    "  shape: fsync-on group commit gains %.1fx at batch 4 and %.1fx at 16\n\
    \  over unbatched (fsync off shows the non-durability ceiling); at %d\n\
    \  clients the writer coalesced %d transactions into %d shared commits\n\
    \  (%.1f txns/fsync); fsync off at %d clients serves %.0f req/s vs %.0f\n"
    (rate_at gc_fsync 4 /. rate_at gc_fsync 1)
    (rate_at gc_fsync 16 /. rate_at gc_fsync 1)
    max_clients batched_max batches_max txns_per_commit max_clients
    (Traffic.throughput nofsync_report)
    (Traffic.throughput r_max);
  if json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P6\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    (* the served points' daemons ran in child processes: this is the
       group-commit runs' and the client side's peak *)
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf (Printf.sprintf "  \"txns\": %d,\n" txns_total);
    Buffer.add_string buf
      (Printf.sprintf "  \"batch4_speedup_fsync\": %.3f,\n"
         (rate_at gc_fsync 4 /. rate_at gc_fsync 1));
    Buffer.add_string buf
      (Printf.sprintf "  \"batch16_speedup_fsync\": %.3f,\n"
         (rate_at gc_fsync 16 /. rate_at gc_fsync 1));
    Buffer.add_string buf (Printf.sprintf "  \"max_clients\": %d,\n" max_clients);
    Buffer.add_string buf
      (Printf.sprintf "  \"throughput_at_max_clients\": %.1f,\n"
         (Traffic.throughput r_max));
    Buffer.add_string buf
      (Printf.sprintf "  \"txns_per_commit_at_max_clients\": %.2f,\n"
         txns_per_commit);
    Buffer.add_string buf "  \"points\": [\n";
    let gc_points series l =
      List.map
        (fun (b, rate) ->
          Printf.sprintf
            "    { \"series\": \"%s\", \"n\": %d, \"txns_per_sec\": %.1f }"
            series b rate)
        l
    in
    let serve_point series c (r : Traffic.report) cpu =
      Printf.sprintf
        "    { \"series\": \"%s\", \"n\": %d, \"req_per_sec\": %.1f, \
         \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"mean_ms\": %.3f, \
         \"daemon_cpu_share\": %.2f }"
        series c (Traffic.throughput r) r.Traffic.p50_ms r.Traffic.p95_ms
        r.Traffic.mean_ms (cpu_share r cpu)
    in
    let serve_points =
      List.map (fun (c, (r, _, cpu)) -> serve_point "serve-fsync" c r cpu) served
      @ [ serve_point "serve-nofsync" max_clients nofsync_report nofsync_cpu ]
    in
    let points =
      gc_points "group-commit-fsync" gc_fsync
      @ gc_points "group-commit-nofsync" gc_nofsync
      @ serve_points
    in
    Buffer.add_string buf (String.concat ",\n" points);
    Buffer.add_string buf "\n  ]\n}\n";
    let oc = open_out "BENCH_serve.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_serve.json (%d points)\n" (List.length points)
  end

(* --- P7: million-entry scale ----------------------------------------------- *)

(* The scale wall.  Every other experiment sweeps |D| in the thousands;
   P7 drives one complete store lifecycle — streaming bulk load, query,
   single-entry transactions, O(1) segment marker vs O(|D|) collapse,
   trusted recovery — up to 10^6 entries, and reports wall-clock plus
   the peak-heap high-water mark at each size.  Single timed runs, not
   bechamel: a point is seconds of work and the sweep itself is the
   measurement, so per-run OLS would mostly re-time the page cache. *)
let exp_p7 ~smoke ~json () =
  header "P7   million-entry scale (interning, word kernels, segment markers)"
    "claim: with hash-consed strings, word-level bitset kernels and O(1)\n\
     segment checkpoints, a 10^6-entry directory loads, queries, absorbs\n\
     transactions, compacts and recovers in time linear in the touched data,\n\
     and in heap linear in |D| with a shared-string constant.";
  let sizes = if smoke then [ 1_000; 5_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let apply_txns = if smoke then 20 else 100 in
  let seed_n = 200 in
  let at = Attr.of_string and cl = Oclass.of_string in
  let queries =
    [
      Query.select_class (cl "person");
      Query.Select
        (Filter.And
           [ Filter.class_eq (cl "person"); Filter.Present (at "mail") ]);
      Query.Chi
        ( Query.Descendant,
          Query.select_class (cl "orgunit"),
          Query.select_class (cl "person") );
    ]
  in
  let find_unit base =
    Bounds_model.Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
        else acc)
      base None
    |> Option.get
  in
  let mk_person id =
    Entry.make ~id
      ~rdn:(Printf.sprintf "uid=p7b%d" id)
      ~classes:(Oclass.set_of_list [ "person"; "top" ])
      [
        (Attr.of_string "uid", Value.String (Printf.sprintf "p7b%d" id));
        (Attr.of_string "name", Value.String "bench");
      ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let pp_s s = pp_time (s *. 1e9) in
  let run_point n =
    let base = WP.generate ~seed:7 ~units:(seed_n / 25) ~persons_per_unit:20 () in
    let unit = find_unit base in
    let io = bench_io (Printf.sprintf "p7-%d" n) in
    let st = Result.get_ok (Store.init io WP.schema base) in
    let total = Bounds_model.Instance.size base + n in
    let t_load, loaded =
      time (fun () ->
          Result.get_ok
            (Store.load st (fun add ->
                 let rec go i =
                   if i = n then Ok ()
                   else
                     match add ~parent:(Some unit) (mk_person (6_000_000 + i)) with
                     | Ok () -> go (i + 1)
                     | Error _ as e -> e
                 in
                 go 0)))
    in
    assert (loaded = n);
    let dir = Store.directory st in
    let t_query, _ =
      time (fun () -> List.iter (fun q -> ignore (Directory.query dir q)) queries)
    in
    let t_apply, _ =
      time (fun () ->
          for i = 0 to apply_txns - 1 do
            ignore
              (Store.apply st
                 [
                      Update.Insert
                        { parent = Some unit; entry = mk_person (7_000_000 + i) };
                    ])
          done)
    in
    (* the soft checkpoint marks the [apply_txns]-record segment; one
       more accepted transaction afterwards gives the collapse a marked
       segment AND an open one *)
    let t_delta, _ = time (fun () -> Store.checkpoint st) in
    assert (Store.segments st = 1);
    ignore
      (Store.apply st
                 [ Update.Insert { parent = Some unit; entry = mk_person 7_999_999 } ]);
    let t_full, _ = time (fun () -> Store.checkpoint ~full:true st) in
    assert (Store.segments st = 0);
    Store.close st;
    let t_recover, _ =
      time (fun () ->
          let st', report = Result.get_ok (Store.open_ io) in
          if report.Store.tail <> Store.Clean then
            failwith "P7: clean store recovered as damaged";
          let got =
            Bounds_model.Instance.size (Directory.instance (Store.directory st'))
          in
          if got <> total + apply_txns + 1 then
            failwith
              (Printf.sprintf "P7: recovered %d entries, expected %d" got
                 (total + apply_txns + 1));
          Store.close st')
    in
    (n, t_load, t_query, t_apply, t_delta, t_full, t_recover, peak_heap_bytes ())
  in
  let results = List.map run_point sizes in
  Printf.printf
    "  store lifecycle per size (load n, %d queries, %d txns, marker + full\n\
    \  checkpoint, trusted recovery); peak heap is the process high-water mark:\n"
    (List.length queries) apply_txns;
  Printf.printf "  %8s  %10s  %9s  %9s  %9s  %9s  %9s  %11s\n" "|D|" "load"
    "query" "apply" "mark-ck" "full-ck" "recover" "peak heap";
  List.iter
    (fun (n, l, q, a, d, f, r, h) ->
      Printf.printf "  %8d  %s  %s  %s  %s  %s  %s  %s\n" n (pp_s l) (pp_s q)
        (pp_s a) (pp_s d) (pp_s f) (pp_s r) (pp_bytes h))
    results;
  let interned = Intern.stats () in
  let intern_saved =
    List.fold_left (fun acc s -> acc + s.Intern.saved_bytes) 0 interned
  in
  (match List.rev results with
  | (n, l, _, a, d, f, r, _) :: _ ->
      Printf.printf
        "  shape: at |D| = %d the store loads %.0f entries/s, absorbs %.0f tx/s,\n\
        \  marks a %d-record segment %.1fx faster than a full collapse, and\n\
        \  recovers in %s; interning saved %.1f MiB of duplicate strings\n"
        n
        (float_of_int n /. l)
        (float_of_int apply_txns /. a)
        apply_txns (f /. d) (String.trim (pp_s r))
        (float_of_int intern_saved /. float_of_int (1 lsl 20))
  | [] -> ());
  if json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P7\",\n";
    Buffer.add_string buf
      "  \"workload\": \"white-pages seed + synthetic persons\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf
      (Printf.sprintf "  \"max_size\": %d,\n" (List.fold_left max 0 sizes));
    Buffer.add_string buf (Printf.sprintf "  \"apply_txns\": %d,\n" apply_txns);
    Buffer.add_string buf
      (Printf.sprintf "  \"intern_saved_bytes\": %d,\n" intern_saved);
    Buffer.add_string buf "  \"intern_pools\": [\n";
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"pool\": \"%s\", \"distinct\": %d, \"hits\": %d, \
              \"saved_bytes\": %d }%s\n"
             s.Intern.pool_name s.Intern.distinct s.Intern.hits
             s.Intern.saved_bytes
             (if i = List.length interned - 1 then "" else ",")))
      interned;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf "  \"points\": [\n";
    List.iteri
      (fun i (n, l, q, a, d, f, r, h) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"n\": %d, \"load_s\": %.3f, \"load_entries_per_sec\": \
              %.0f, \"query_s\": %.6f, \"apply_s\": %.3f, \
              \"apply_txns_per_sec\": %.0f, \"delta_ckpt_s\": %.6f, \
              \"full_ckpt_s\": %.3f, \"recover_s\": %.3f, \
              \"peak_heap_bytes\": %d }%s\n"
             n l
             (float_of_int n /. l)
             q a
             (float_of_int apply_txns /. a)
             d f r h
             (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_scale.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_scale.json (%d points)\n" (List.length results)
  end

(* --- P8: steady-state write throughput (chunked COW versions) -------------- *)

(* The write wall.  Before chunked copy-on-write versions, every accepted
   transaction paid O(|D|) — flat-array blits for the index, a
   [Hashtbl.copy] per value table — which pinned a 10^6-entry session at
   ~1 tx/s however small the transaction.  P8 drives a live [Directory]
   session (no durability in the loop: P4/P7 own that axis) through a
   steady alternation of single-entry insert/delete transactions and
   reports transactions per second at 10^4 .. 10^6, next to a
   rebuild-per-transaction baseline that stands in for the old O(|D|)
   write path.  A read-after-write series runs the same pairs with one
   root-scoped (uid=...) lookup through [Directory.Snapshot.search] on
   each new version: its tx/s and the mean first-read time show what a
   version costs when something reads it (every version is read through
   its chunks, so the first read pays no per-version build).  Single
   timed runs like P7: the sweep is the measurement. *)
let exp_p8 ~smoke ~json () =
  header "P8   steady-state write throughput (chunked COW index versions)"
    "claim: with chunked copy-on-write versions (index spine + persistent\n\
     rank/value maps), a small transaction costs O(delta + touched chunks)\n\
     instead of O(|D|), so steady-state writes clear 100 tx/s at 10^6\n\
     entries - the old flat-copy path managed ~1 tx/s.";
  let sizes =
    if smoke then [ 1_000; 5_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let iterations = if smoke then 20 else 100 in
  let baseline_txns = 2 in
  let find_unit base =
    Bounds_model.Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "orgunit") then Some (Entry.id e)
        else acc)
      base None
    |> Option.get
  in
  let mk_person id =
    Entry.make ~id
      ~rdn:(Printf.sprintf "uid=p8b%d" id)
      ~classes:(Oclass.set_of_list [ "person"; "top" ])
      [
        (Attr.of_string "uid", Value.String (Printf.sprintf "p8b%d" id));
        (Attr.of_string "name", Value.String "bench");
      ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let pp_s s = pp_time (s *. 1e9) in
  let run_point n =
    let units = max 1 (n / 21) in
    let base = WP.generate ~seed:8 ~units ~persons_per_unit:20 () in
    let unit = find_unit base in
    let n_real = Bounds_model.Instance.size base in
    let dir = Result.get_ok (Directory.open_ WP.schema base) in
    (* isolate points from each other: without this, the timed loop at
       10^6 pays major-GC marking over the previous points' dead heap *)
    Gc.compact ();
    (* steady state: insert a person, delete it again - every pair of
       transactions returns the session to |D| = n, so the loop measures
       sustained write cost at size, not growth *)
    let dir = ref dir in
    let ok what = function
      | d, Admission.Accepted _ -> d
      | _, Admission.Rejected _ -> failwith ("P8: rejected " ^ what)
    in
    (* one warm pair outside the clock: first-touch materialization *)
    dir := ok "warm ins" (Directory.apply !dir
             [ Update.Insert { parent = Some unit; entry = mk_person 8_999_999 } ]);
    dir := ok "warm del" (Directory.apply !dir [ Update.Delete 8_999_999 ]);
    let t_steady, () =
      time (fun () ->
          for i = 0 to iterations - 1 do
            let id = 8_000_000 + i in
            dir :=
              ok "insert"
                (Directory.apply !dir
                   [ Update.Insert { parent = Some unit; entry = mk_person id } ]);
            dir := ok "delete" (Directory.apply !dir [ Update.Delete id ])
          done)
    in
    let txns = 2 * iterations in
    (* read after write: the same pairs, each transaction followed by a
       root-scoped lookup of the person it inserted or deleted, on the
       version it made *)
    let root = List.hd (Bounds_model.Instance.roots base) in
    let t_read = ref 0. in
    let lookup id ~expect =
      let snap = Directory.snapshot !dir in
      let f = Filter.Eq (Attr.of_string "uid", Printf.sprintf "p8b%d" id) in
      let t, hits =
        time (fun () -> Directory.Snapshot.search snap ~base:(Some root) Search.Subtree f)
      in
      t_read := !t_read +. t;
      if List.length hits <> expect then failwith "P8: wrong lookup answer"
    in
    let t_rw, () =
      time (fun () ->
          for i = 0 to iterations - 1 do
            let id = 8_200_000 + i in
            dir :=
              ok "insert"
                (Directory.apply !dir
                   [ Update.Insert { parent = Some unit; entry = mk_person id } ]);
            lookup id ~expect:1;
            dir := ok "delete" (Directory.apply !dir [ Update.Delete id ]);
            lookup id ~expect:0
          done)
    in
    (* the old write path rebuilt/copied every O(|D|) structure per
       transaction; a fresh index + value-table build per transaction is
       that cost, measured honestly at this size *)
    let t_baseline, () =
      time (fun () ->
          let inst = ref (Directory.instance !dir) in
          for i = 0 to baseline_txns - 1 do
            let id = 8_100_000 + i in
            let ops =
              [ Update.Insert { parent = Some unit; entry = mk_person id } ]
            in
            inst := Result.get_ok (Update.apply !inst ops);
            let ix = Index.create !inst in
            ignore (Vindex.create ix)
          done)
    in
    ( n_real,
      txns,
      t_steady,
      float_of_int txns /. t_steady,
      float_of_int baseline_txns /. t_baseline,
      (float_of_int txns /. t_rw, 1000. *. !t_read /. float_of_int txns),
      peak_heap_bytes () )
  in
  let results = List.map run_point sizes in
  Printf.printf
    "  steady-state single-entry transactions against a live session\n\
    \  (insert+delete pairs; baseline rebuilds index+vindex per txn;\n\
    \  read-after-write adds one root-scoped uid lookup per txn):\n";
  Printf.printf "  %8s  %8s  %12s  %10s  %12s  %8s  %10s  %12s\n" "|D|" "txns"
    "elapsed" "tx/s" "rebuild tx/s" "speedup" "w+r tx/s" "1st read ms";
  List.iter
    (fun (n, txns, t, rate, base_rate, (rw_rate, first_read_ms), _) ->
      Printf.printf "  %8d  %8d  %s  %10.0f  %12.2f  %7.0fx  %10.0f  %12.3f\n" n
        txns (pp_s t) rate base_rate (rate /. base_rate) rw_rate first_read_ms)
    results;
  (match List.rev results with
  | (n, _, _, rate, base_rate, _, _) :: _ ->
      Printf.printf
        "  shape: at |D| = %d the session absorbs %.0f tx/s steady-state;\n\
        \  the per-transaction rebuild baseline manages %.2f tx/s (%.0fx)\n"
        n rate base_rate (rate /. base_rate)
  | [] -> ());
  if json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P8\",\n";
    Buffer.add_string buf
      "  \"workload\": \"white-pages; steady insert+delete pairs\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"iterations\": %d,\n" iterations);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf "  \"points\": [\n";
    List.iteri
      (fun i (n, txns, t, rate, base_rate, (rw_rate, first_read_ms), heap) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"n\": %d, \"txns\": %d, \"elapsed_s\": %.3f, \
              \"tx_per_sec\": %.1f, \"rebuild_tx_per_sec\": %.3f, \
              \"speedup_vs_rebuild\": %.1f, \
              \"read_after_write_tx_per_sec\": %.1f, \"first_read_ms\": %.3f, \
              \"peak_heap_bytes\": %d }%s\n"
             n txns t rate base_rate (rate /. base_rate) rw_rate first_read_ms heap
             (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out "BENCH_write.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_write.json (%d points)\n" (List.length results)
  end

(* --- W1: the chase coverage statistic ------------------------------------- *)

let exp_w1 () =
  header "W1   consistency-decision coverage (reconstruction quality)"
    "claim: decide() settles (consistent-with-witness or\n\
     inconsistent-with-proof) virtually all random schemas; the\n\
     unresolved long tail is rare and reported, never guessed.";
  let run_config ~label ~n_req ~n_forb =
    let total = 3000 in
    let consistent = ref 0 and inconsistent = ref 0 and unresolved = ref 0 in
    for seed = 0 to total - 1 do
      let s =
        Bounds_workload.Gen.random_schema ~seed ~n_classes:5 ~n_req ~n_forb
          ~n_required_classes:2
      in
      match Consistency.decide s with
      | Consistency.Consistent _ -> incr consistent
      | Consistency.Inconsistent _ -> incr inconsistent
      | Consistency.Unresolved _ -> incr unresolved
    done;
    Printf.printf
      "  %-18s %d schemas: %4d consistent (verified witness), %4d inconsistent\n\
      \  %-18s (machine-checked proof), %d unresolved (%.3f%%)\n" label total
      !consistent !inconsistent "" !unresolved
      (100. *. float_of_int !unresolved /. float_of_int total)
  in
  run_config ~label:"dense (5 req/3 forb)" ~n_req:5 ~n_forb:3;
  run_config ~label:"sparse (2 req/1 forb)" ~n_req:2 ~n_forb:1

(* --- P9: WAL-shipped replica --------------------------------------------- *)

let exp_p9 ~smoke ~json () =
  let module Server = Bounds_net.Server in
  let module Replica = Bounds_net.Replica in
  let module Client = Bounds_net.Client in
  let module Proto = Bounds_net.Proto in
  let module Traffic = Bounds_workload.Traffic in
  header "P9   WAL-shipped replica: replication throughput and lag"
    "claim: shipping every acknowledged WAL record keeps a read replica\n\
     within a small bounded lag of the primary under a sustained write\n\
     stream - the replica applies through trusted replay (admission\n\
     happened at the primary's acknowledge), so apply cost stays below\n\
     admission cost and the replica catches up promptly once the\n\
     stream quiesces.";
  let client_counts = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let requests_per_client = if smoke then 40 else 200 in
  let pct sorted p =
    if Array.length sorted = 0 then 0
    else
      sorted.(min
                (Array.length sorted - 1)
                (int_of_float (ceil (p *. float_of_int (Array.length sorted)) -. 1.)))
  in
  (* one primary+replica pair per point: write-only traffic at the
     primary while a sampler thread reads the lsn gap, then the time
     for the replica to drain the residual lag once writes stop *)
  let point clients =
    let io = bench_io ~fsync:true (Printf.sprintf "p9p-%d" clients) in
    let base = WP.generate ~seed:9 ~units:3 ~persons_per_unit:3 () in
    let st = Result.get_ok (Store.init io WP.schema base) in
    let srv = Server.start ~port:0 ~batch_max:64 ~replicate:true st in
    let port = Server.port srv in
    let rio = bench_io ~fsync:true (Printf.sprintf "p9r-%d" clients) in
    let rep = Replica.start ~port:0 ~primary_port:port rio in
    let deadline = Unix.gettimeofday () +. 30. in
    while
      (Replica.stats rep).Replica.boots = 0 && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.005
    done;
    if (Replica.stats rep).Replica.boots = 0 then failwith "P9: bootstrap stuck";
    let lags = ref [] in
    let sampling = Atomic.make true in
    let sampler =
      Thread.create
        (fun () ->
          while Atomic.get sampling do
            let lag =
              Store.lsn st - (Replica.stats rep).Replica.applied_lsn
            in
            lags := max 0 lag :: !lags;
            Thread.delay 0.002
          done)
        ()
    in
    let t0 = Unix.gettimeofday () in
    let report =
      match
        Traffic.run ~port ~clients ~requests:requests_per_client
          ~write_ratio:1.0 ~seed:(9 + clients)
          ~tag:(Printf.sprintf "p9c%d" clients)
          ()
      with
      | Ok r -> r
      | Error e -> failwith ("P9 traffic: " ^ e)
    in
    let t_traffic = Unix.gettimeofday () -. t0 in
    let final_lsn = Store.lsn st in
    let tc0 = Unix.gettimeofday () in
    while
      (Replica.stats rep).Replica.applied_lsn < final_lsn
      && Unix.gettimeofday () < tc0 +. 30.
    do
      Thread.delay 0.001
    done;
    let catchup_ms = (Unix.gettimeofday () -. tc0) *. 1000. in
    let applied = (Replica.stats rep).Replica.applied_lsn in
    if applied < final_lsn then
      failwith
        (Printf.sprintf "P9: replica stuck at lsn %d of %d" applied final_lsn);
    Atomic.set sampling false;
    Thread.join sampler;
    (* the replica must answer the same count the primary does *)
    let count_at p =
      match Client.connect ~port:p ~retries:10 () with
      | Error e -> failwith ("P9 count: " ^ e)
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.request c (Proto.Query "(objectClass=person)") with
              | Ok (Proto.Reply body) -> (
                  match String.index_opt body '\n' with
                  | Some i -> String.sub body 0 i
                  | None -> body)
              | Ok (Proto.Failed m) -> failwith ("P9 count: " ^ m)
              | Error e -> failwith ("P9 count: " ^ e))
    in
    let pc = count_at port and rc = count_at (Replica.port rep) in
    if pc <> rc then
      failwith (Printf.sprintf "P9: diverged (primary %s, replica %s)" pc rc);
    Replica.stop rep;
    Replica.wait rep;
    (match Client.connect ~port ~retries:10 () with
    | Ok c ->
        ignore (Client.request c Proto.Shutdown);
        Client.close c
    | Error e -> failwith ("P9 shutdown: " ^ e));
    Server.wait srv;
    Store.close st;
    let sorted = Array.of_list !lags in
    Array.sort compare sorted;
    let writes = clients * requests_per_client in
    ( clients,
      float_of_int writes /. t_traffic,
      Traffic.throughput report,
      pct sorted 0.5,
      pct sorted 0.95,
      (if Array.length sorted = 0 then 0 else sorted.(Array.length sorted - 1)),
      catchup_ms,
      final_lsn )
  in
  let points = List.map point client_counts in
  Printf.printf
    "  write-only traffic at the primary, %d requests/client (fsync on,\n\
    \  lag sampled every 2 ms as primary lsn - replica applied lsn):\n"
    requests_per_client;
  Printf.printf "  %8s  %11s  %9s  %9s  %9s  %11s\n" "clients" "writes/s"
    "lag p50" "lag p95" "lag max" "catchup ms";
  List.iter
    (fun (c, wps, _, p50, p95, mx, cms, _) ->
      Printf.printf "  %8d  %11.0f  %9d  %9d  %9d  %11.1f\n" c wps p50 p95 mx
        cms)
    points;
  let _, _, _, _, worst_p95, _, _, _ =
    List.fold_left
      (fun ((_, _, _, _, bp, _, _, _) as best)
           ((_, _, _, _, p95, _, _, _) as cand) ->
        if p95 > bp then cand else best)
      (List.hd points) (List.tl points)
  in
  Printf.printf
    "  shape: lag stays bounded (worst p95 %d records) while the primary\n\
    \  takes writes at full speed; every point converged to the primary's\n\
    \  final lsn and answered the same person count over the wire\n"
    worst_p95;
  if json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"experiment\": \"P9\",\n";
    Buffer.add_string buf "  \"workload\": \"white-pages\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"peak_heap_bytes\": %d,\n" (peak_heap_bytes ()));
    Buffer.add_string buf
      (Printf.sprintf "  \"requests_per_client\": %d,\n" requests_per_client);
    Buffer.add_string buf "  \"points\": [\n";
    let lines =
      List.map
        (fun (c, wps, rps, p50, p95, mx, cms, lsn) ->
          Printf.sprintf
            "    { \"series\": \"replicate\", \"n\": %d, \"writes_per_sec\": \
             %.1f, \"req_per_sec\": %.1f, \"lag_p50\": %d, \"lag_p95\": %d, \
             \"lag_max\": %d, \"catchup_ms\": %.1f, \"final_lsn\": %d }"
            c wps rps p50 p95 mx cms lsn)
        points
    in
    Buffer.add_string buf (String.concat ",\n" lines);
    Buffer.add_string buf "\n  ]\n}\n";
    let oc = open_out "BENCH_replicate.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH_replicate.json (%d points)\n"
      (List.length lines)
  end

(* --- driver ------------------------------------------------------------------ *)

let experiments ~smoke ~json =
  [
    ("T31", exp_t31);
    ("T42", exp_t42);
    ("T52", exp_t52);
    ("Q9", exp_q9);
    ("C31", exp_c31);
    ("A1", exp_a1);
    ("A2", exp_a2);
    ("A3", exp_a3);
    ("W1", exp_w1);
    ("P1", exp_p1 ~smoke ~json);
    ("P2", exp_p2 ~smoke ~json);
    ("P3", exp_p3 ~smoke ~json);
    ("P4", exp_p4 ~smoke ~json);
    ("P5", exp_p5 ~smoke ~json);
    ("P6", exp_p6 ~smoke ~json);
    ("P7", exp_p7 ~smoke ~json);
    ("P8", exp_p8 ~smoke ~json);
    ("P9", exp_p9 ~smoke ~json);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  let smoke = List.mem "--smoke" flags and json = List.mem "--json" flags in
  (match List.filter (fun f -> f <> "--smoke" && f <> "--json") flags with
  | [] -> ()
  | f :: _ ->
      Printf.eprintf "unknown flag %s (known: --smoke --json)\n" f;
      exit 2);
  let experiments = experiments ~smoke ~json in
  let selected = match names with [] -> List.map fst experiments | l -> l in
  Printf.printf
    "bounding-schemas benchmark harness - shapes, not absolute numbers,\n\
     are the reproduction target (see EXPERIMENTS.md)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None -> Printf.printf "unknown experiment %s\n" name)
    selected
