open Bounds_model

(* {1 Plan representation} *)

type access =
  | A_eq of Attr.t * string
  | A_present of Attr.t
  | A_range of { ge : bool; attr : Attr.t; value : string }
  | A_substr of Attr.t * Filter.substring
  | A_full (* And [] *)
  | A_empty (* Or [] *)

type fnode = { fshape : fshape; f_est : int; mutable f_actual : int }

and fshape =
  | F_access of access
  | F_and of fnode * conjunct list
      (* seed access path + the remaining conjuncts, most selective
         first, each either intersected as a materialized bitset or
         verified per candidate over the running candidate set *)
  | F_or of fnode list
  | F_not of fnode

and conjunct = C_inter of fnode | C_verify of residual
and residual = { pred : Filter.t; r_est : int }

type qnode = { qshape : qshape; q_est : int; mutable q_actual : int }

and qshape =
  | Q_select of fnode
  | Q_minus of qnode * qnode
  | Q_union of qnode * qnode
  | Q_inter of qnode * qnode
  | Q_chi of Query.axis * qnode * qnode

type t = { vx : Vindex.t; ix : Index.t; query : Query.t; root : qnode }

(* {1 Selectivity estimation}

   Cardinality upper bounds straight from the value index (O(log) per
   leaf).  Conjunctions estimate as the minimum over conjuncts,
   disjunctions as the clamped sum, complements as the remainder — crude,
   but the only decision they drive is ordering, where relative magnitude
   is what matters. *)

let rec est_filter vx n = function
  | Filter.Eq (a, v) -> min n (Vindex.card_eq vx a v)
  | Filter.Present a -> min n (Vindex.card_present vx a)
  | Filter.Ge (a, v) -> min n (Vindex.card_range vx ~ge:true a v)
  | Filter.Le (a, v) -> min n (Vindex.card_range vx ~ge:false a v)
  | Filter.Substr (a, s) -> min n (Vindex.card_substr vx a s)
  | Filter.And fs -> List.fold_left (fun m f -> min m (est_filter vx n f)) n fs
  | Filter.Or fs -> min n (List.fold_left (fun s f -> s + est_filter vx n f) 0 fs)
  | Filter.Not _ ->
      (* Leaf estimates are upper bounds, so [n - est f] would be a lower
         bound — treating it as an estimate once made a Not the seed of a
         conjunction and forced a full per-candidate verification sweep.
         The only sound upper bound for a complement is [n], which also
         keeps Not out of seed position. *)
      n

(* {1 Planning} *)

let fnode fshape f_est = { fshape; f_est; f_actual = -1 }

(* One per-candidate [Filter.matches] verification costs about this many
   bitset rank-fills (entry lookup, attribute access, string
   normalization vs. one list step and a bit set).  It prices the
   intersect-vs-verify decision below; only the order of magnitude
   matters. *)
let verify_factor = 16

(* Materialization cost of a plan subtree, in rank-fill units: access
   paths pay one fill per estimated member, trigram candidates
   additionally pay a per-candidate verification each, and complements
   add a word-wise pass over the universe. *)
let rec mat_cost n fn =
  match fn.fshape with
  | F_access (A_eq _ | A_present _ | A_range _) -> fn.f_est
  | F_access (A_substr _) -> verify_factor * fn.f_est
  | F_access A_full -> n / 32
  | F_access A_empty -> 0
  | F_and (seed, cs) ->
      List.fold_left
        (fun acc -> function
          | C_inter nd -> acc + mat_cost n nd
          | C_verify r -> acc + (verify_factor * min seed.f_est r.r_est))
        (mat_cost n seed) cs
  | F_or nodes -> List.fold_left (fun acc nd -> acc + mat_cost n nd) 0 nodes
  | F_not nd -> mat_cost n nd + (n / 32)

let rec plan_filter vx n f =
  let est = est_filter vx n f in
  match f with
  | Filter.Eq (a, v) -> fnode (F_access (A_eq (a, v))) est
  | Filter.Present a -> fnode (F_access (A_present a)) est
  | Filter.Ge (attr, value) -> fnode (F_access (A_range { ge = true; attr; value })) est
  | Filter.Le (attr, value) -> fnode (F_access (A_range { ge = false; attr; value })) est
  | Filter.Substr (a, s) -> fnode (F_access (A_substr (a, s))) est
  | Filter.And [] -> fnode (F_access A_full) n
  | Filter.And [ f ] -> plan_filter vx n f
  | Filter.And fs ->
      (* Most selective conjunct becomes the seed access path.  The
         remaining conjuncts apply most selective first, each in the
         cheaper of two modes: materialize its own bitset and intersect
         (one fill per estimated member), or verify it per candidate of
         the running set (one [Filter.matches] per survivor,
         [verify_factor] dearer apiece).  Indexed conjuncts therefore
         intersect unless the candidate set has already shrunk well below
         their cardinality; [Not] conjuncts estimate at [n] and so
         gravitate to the verify tail — complements are taken late and
         narrow, as a per-candidate boolean test, never as an O(n)
         complement set. *)
      let scored = List.mapi (fun i f -> (i, f, est_filter vx n f)) fs in
      let seed_i, seed_f, seed_e =
        List.fold_left
          (fun (bi, bf, be) (i, f, e) -> if e < be then (i, f, e) else (bi, bf, be))
          (List.hd scored) (List.tl scored)
      in
      let rest =
        scored
        |> List.filter (fun (i, _, _) -> i <> seed_i)
        |> List.stable_sort (fun (_, _, e1) (_, _, e2) -> Int.compare e1 e2)
      in
      let _, rev_conjuncts =
        List.fold_left
          (fun (cur, acc) (_, pred, r_est) ->
            let nd = plan_filter vx n pred in
            let c =
              if mat_cost n nd <= verify_factor * cur then C_inter nd
              else C_verify { pred; r_est }
            in
            (min cur r_est, c :: acc))
          (seed_e, []) rest
      in
      fnode (F_and (plan_filter vx n seed_f, List.rev rev_conjuncts)) est
  | Filter.Or [] -> fnode (F_access A_empty) 0
  | Filter.Or fs -> fnode (F_or (List.map (plan_filter vx n) fs)) est
  | Filter.Not f -> fnode (F_not (plan_filter vx n f)) est

let qnode qshape q_est = { qshape; q_est; q_actual = -1 }

let rec plan_q vx n = function
  | Query.Select f ->
      let fn = plan_filter vx n f in
      qnode (Q_select fn) fn.f_est
  | Query.Minus (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode (Q_minus (pa, pb)) pa.q_est
  | Query.Union (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode (Q_union (pa, pb)) (min n (pa.q_est + pb.q_est))
  | Query.Inter (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode (Q_inter (pa, pb)) (min pa.q_est pb.q_est)
  | Query.Chi (ax, a, b) ->
      (* the result is a subset of q1 *)
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode (Q_chi (ax, pa, pb)) pa.q_est

let plan vx query =
  let ix = Vindex.index vx in
  { vx; ix; query; root = plan_q vx (Index.n ix) query }

(* {1 Execution}

   Every branch returns a freshly allocated bitset, so in-place residual
   filtering and [_into] accumulation never alias a caller-visible set.
   [f_actual]/[q_actual] are recorded as nodes complete; a node skipped
   by an early exit keeps [-1] and explains as "skipped". *)

let verify_into ix pred cand =
  (* [Bitset.iter] reads one byte ahead of the bits it visits, so
     unsetting the current member is safe. *)
  Bitset.iter
    (fun r -> if not (Filter.matches pred (Index.entry_of_rank ix r)) then Bitset.unset cand r)
    cand

let rec exec_f ?pool vx ix node =
  let n = Index.n ix in
  let bs =
    match node.fshape with
    | F_access (A_eq (a, v)) -> Vindex.lookup_eq vx a v
    | F_access (A_present a) -> Vindex.lookup_present vx a
    | F_access (A_range { ge; attr; value }) -> Vindex.lookup_range vx ~ge attr value
    | F_access (A_substr (a, sub)) ->
        (* trigram candidates are a superset: verify each one *)
        let cand = Vindex.substr_candidates vx a sub in
        verify_into ix (Filter.Substr (a, sub)) cand;
        cand
    | F_access A_full -> Bitset.full n
    | F_access A_empty -> Bitset.create n
    | F_and (seed, conjuncts) ->
        let cand = exec_f ?pool vx ix seed in
        List.iter
          (fun c ->
            if not (Bitset.is_empty cand) then
              match c with
              | C_inter nd -> Bitset.inter_into ~into:cand (exec_f ?pool vx ix nd)
              | C_verify { pred; _ } -> verify_into ix pred cand)
          conjuncts;
        cand
    | F_or nodes ->
        let acc = Bitset.create n in
        List.iter (fun nd -> Bitset.union_into ~into:acc (exec_f ?pool vx ix nd)) nodes;
        acc
    | F_not nd -> Bitset.complement (exec_f ?pool vx ix nd)
  in
  node.f_actual <- Bitset.count bs;
  bs

let rec exec_q ?pool vx ix node =
  let bs =
    match node.qshape with
    | Q_select fn -> exec_f ?pool vx ix fn
    | Q_minus (a, b) ->
        let sa = exec_q ?pool vx ix a in
        if Bitset.is_empty sa then sa else Bitset.diff sa (exec_q ?pool vx ix b)
    | Q_union (a, b) ->
        Bitset.union (exec_q ?pool vx ix a) (exec_q ?pool vx ix b)
    | Q_inter (a, b) ->
        let sa = exec_q ?pool vx ix a in
        if Bitset.is_empty sa then sa else Bitset.inter sa (exec_q ?pool vx ix b)
    | Q_chi (ax, a, b) ->
        let sa = exec_q ?pool vx ix a in
        if Bitset.is_empty sa then sa
        else
          let sb = exec_q ?pool vx ix b in
          if Bitset.is_empty sb then Bitset.create (Index.n ix)
          else Eval.chi ?pool ix ax sa sb
  in
  node.q_actual <- Bitset.count bs;
  bs

let exec ?pool t = exec_q ?pool t.vx t.ix t.root
let query t = t.query

let eval ?pool vx q = exec ?pool (plan vx q)
let eval_ids ?pool vx q = Index.ids_of (Vindex.index vx) (eval ?pool vx q)

(* {1 Explain} *)

let access_to_string = function
  | A_eq (a, v) -> Printf.sprintf "eq (%s=%s)" (Attr.to_string a) v
  | A_present a -> Printf.sprintf "present (%s=*)" (Attr.to_string a)
  | A_range { ge; attr; value } ->
      Printf.sprintf "range (%s%s%s)" (Attr.to_string attr) (if ge then ">=" else "<=") value
  | A_substr (a, s) -> Printf.sprintf "substr %s" (Filter.to_string (Filter.Substr (a, s)))
  | A_full -> "full"
  | A_empty -> "empty"

let card = function -1 -> "skipped" | c -> string_of_int c

let explain_lines t =
  let lines = ref [] in
  let emit depth text est actual =
    let line =
      Printf.sprintf "%s%-*s est=%-6d actual=%s"
        (String.make (2 * depth) ' ')
        (max 1 (40 - (2 * depth)))
        text est actual
    in
    lines := line :: !lines
  in
  let rec fgo depth fn =
    match fn.fshape with
    | F_access a -> emit depth (access_to_string a) fn.f_est (card fn.f_actual)
    | F_and (seed, conjuncts) ->
        emit depth "and" fn.f_est (card fn.f_actual);
        fgo (depth + 1) seed;
        List.iter
          (function
            | C_inter nd -> fgo (depth + 1) nd
            | C_verify { pred; r_est } ->
                emit (depth + 1)
                  (Printf.sprintf "verify %s" (Filter.to_string pred))
                  r_est "-")
          conjuncts
    | F_or nodes ->
        emit depth "or" fn.f_est (card fn.f_actual);
        List.iter (fgo (depth + 1)) nodes
    | F_not nd ->
        emit depth "not" fn.f_est (card fn.f_actual);
        fgo (depth + 1) nd
  in
  let rec qgo depth qn =
    match qn.qshape with
    | Q_select fn ->
        emit depth "select" qn.q_est (card qn.q_actual);
        fgo (depth + 1) fn
    | Q_minus (a, b) ->
        emit depth "minus" qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_union (a, b) ->
        emit depth "union" qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_inter (a, b) ->
        emit depth "inter" qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_chi (ax, a, b) ->
        emit depth (Printf.sprintf "chi %s" (Query.axis_to_string ax)) qn.q_est
          (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
  in
  qgo 0 t.root;
  List.rev !lines

let pp_explain ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (explain_lines t)

(* {1 Memoized evaluation}

   Hash-consed on the canonical [Query.to_string] rendering (round-trip
   tested in the parser suite), scoped to one [(index, vindex)] snapshot:
   a memo must be dropped with the snapshot it was built from.  Cached
   bitsets are shared — callers must treat results as immutable (all
   combinators here are persistent).

   Concurrency contract: [memo_eval] writes the cache and must run
   sequentially; [memo_eval_ro] never writes, so any number of domains
   may call it over a prewarmed memo concurrently ([Hashtbl] reads are
   safe when no writer runs).  The hit/miss counters move only under
   [memo_eval] for the same reason. *)

type memo = {
  m_vx : Vindex.t;
  m_ix : Index.t;
  cache : (string, Query.t * Bitset.t) Hashtbl.t;
      (* the AST rides along with each result so {!memo_apply} can
         re-admit inserted entries without reparsing the key *)
  mutable hits : int;
  mutable misses : int;
  mutable migrated : int;
  mutable dropped : int;
}

let memo_create vx =
  {
    m_vx = vx;
    m_ix = Vindex.index vx;
    cache = Hashtbl.create 256;
    hits = 0;
    misses = 0;
    migrated = 0;
    dropped = 0;
  }

let rec memo_eval_gen ~rw ?pool m q =
  let key = Query.to_string q in
  match Hashtbl.find_opt m.cache key with
  | Some (_, bs) ->
      if rw then m.hits <- m.hits + 1;
      bs
  | None ->
      if rw then m.misses <- m.misses + 1;
      let go = memo_eval_gen ~rw ?pool m in
      let bs =
        match q with
        | Query.Select _ -> exec ?pool (plan m.m_vx q)
        | Query.Minus (a, b) ->
            let sa = go a in
            if Bitset.is_empty sa then sa else Bitset.diff sa (go b)
        | Query.Union (a, b) -> Bitset.union (go a) (go b)
        | Query.Inter (a, b) ->
            let sa = go a in
            if Bitset.is_empty sa then sa else Bitset.inter sa (go b)
        | Query.Chi (ax, a, b) ->
            let sa = go a in
            if Bitset.is_empty sa then sa
            else
              let sb = go b in
              if Bitset.is_empty sb then Bitset.create (Index.n m.m_ix)
              else Eval.chi ?pool m.m_ix ax sa sb
      in
      if rw then Hashtbl.add m.cache key (q, bs);
      bs

let memo_eval ?pool m q = memo_eval_gen ~rw:true ?pool m q
let memo_eval_ro ?pool m q = memo_eval_gen ~rw:false ?pool m q

let prewarm ?pool m qs =
  (* Occurrence counts over canonical renderings of every subquery node;
     anything shared (count ≥ 2) is evaluated-and-cached up front — the
     Figure-4 obligation set shares its class selections and χ frames
     heavily, and even a single obligation like σ−(s_i, χ(ax, s_i, s_j))
     names s_i twice. *)
  let counts = Hashtbl.create 256 in
  let subs = List.map Query.subqueries qs in
  List.iter
    (List.iter (fun sq ->
         let key = Query.to_string sq in
         Hashtbl.replace counts key
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))))
    subs;
  List.iter
    (List.iter (fun sq ->
         let key = Query.to_string sq in
         if
           Option.value ~default:0 (Hashtbl.find_opt counts key) >= 2
           && not (Hashtbl.mem m.cache key)
         then ignore (memo_eval ?pool m sq)))
    subs

let memo_stats m = (m.hits, m.misses, Hashtbl.length m.cache)

(* {2 Memo migration across an update}

   A cached result can be carried to the post-transaction snapshot when
   the query is {e pointwise} — membership of an entry depends only on
   that entry's own content (Select leaves composed with ∪/∩/−).  Then
   surviving entries keep their verdict (ranks translate through the two
   id tables), deleted entries drop out, and each inserted entry is
   admitted by one direct membership test.  χ-containing queries are
   invalidated instead: an insertion changes χ membership of arbitrary
   relatives of the insertion point (e.g. χ_p spreads to every child of
   an affected parent), so no per-subtree confinement of the affected
   set is sound for composed queries.  The expensive shared subqueries
   across the Figure-4 obligation set — the class selections — are
   pointwise, so they are exactly what survives. *)

let rec pointwise = function
  | Query.Select _ -> true
  | Query.Minus (a, b) | Query.Union (a, b) | Query.Inter (a, b) ->
      pointwise a && pointwise b
  | Query.Chi _ -> false

let rec pointwise_member q e =
  match q with
  | Query.Select f -> Filter.matches f e
  | Query.Minus (a, b) -> pointwise_member a e && not (pointwise_member b e)
  | Query.Union (a, b) -> pointwise_member a e || pointwise_member b e
  | Query.Inter (a, b) -> pointwise_member a e && pointwise_member b e
  | Query.Chi _ -> assert false

let memo_apply ~vindex ~splices ops m =
  let new_ix = Vindex.index vindex in
  (* entries inserted by Δ and still present at the end of it *)
  let inserted : (Entry.id, Entry.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Update.Insert { entry; _ } -> Hashtbl.replace inserted (Entry.id entry) entry
      | Update.Delete id -> Hashtbl.remove inserted id)
    ops;
  let inserted_ranks =
    Hashtbl.fold
      (fun id e acc ->
        match Index.rank_opt new_ix id with
        | Some r -> (r, e) :: acc
        | None -> acc)
      inserted []
  in
  (* Replay the transaction's rank-space edits on the bitset itself: a
     splice shifts every surviving verdict to its new rank in one
     word-level pass ([Bitset.splice]), deleted ranks fall out of the
     removed window, and inserted ranks start cleared — to be admitted
     below by direct membership tests.  O(#splices · n/64) per cached
     set, independent of how many members it has, and with no per-member
     id→rank translation.  (A delete-then-reinsert of the same id is
     handled structurally: the old verdict dies with the removed window
     rather than leaking through an id-based translation.) *)
  let migrate bs =
    List.fold_left
      (fun bs { Index.sp_at; sp_removed; sp_inserted } ->
        Bitset.splice ~at:sp_at ~removed:sp_removed ~inserted:sp_inserted bs)
      bs splices
  in
  let m' =
    {
      m_vx = vindex;
      m_ix = new_ix;
      cache = Hashtbl.create (max 16 (Hashtbl.length m.cache));
      hits = m.hits;
      misses = m.misses;
      migrated = m.migrated;
      dropped = m.dropped;
    }
  in
  Hashtbl.iter
    (fun key (q, bs) ->
      if pointwise q then begin
        let nbs = migrate bs in
        List.iter
          (fun (r', e) -> if pointwise_member q e then Bitset.set nbs r')
          inserted_ranks;
        Hashtbl.add m'.cache key (q, nbs);
        m'.migrated <- m'.migrated + 1
      end
      else m'.dropped <- m'.dropped + 1)
    m.cache;
  m'

let memo_migration_stats m = (m.migrated, m.dropped)
