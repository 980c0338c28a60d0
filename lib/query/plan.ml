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

type qnode = {
  qshape : qshape;
  q_est : int;
  q_query : Query.t;  (* the memo's key; a selection's filter *)
  mutable q_actual : int;
  mutable q_mode : mode;
}

(* How a χ, ∩ or − node met the operand it may test per candidate (χ's
   q1, the right operand of ∩ and −): tested on k candidates, or built
   and combined with the other operand's set. *)
and mode = Unrun | Verify of int | Sweep

and qshape =
  | Q_select of fnode
  | Q_minus of qnode * qnode
  | Q_union of qnode * qnode
  | Q_inter of qnode * qnode
  | Q_chi of Query.axis * qnode * qnode

type t = { vx : Vindex.t; ix : Index.t; query : Query.t; root : qnode }

(* [f_actual]/[q_actual] before a node runs, and after an early exit
   skipped it; and of an operand tested per candidate instead of
   built *)
let skipped = -1
let verified = -2

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

let fnode fshape f_est = { fshape; f_est; f_actual = skipped }

(* One per-candidate [Filter.matches] verification costs about this many
   bitset rank-fills (entry lookup, attribute access, string
   normalization vs. one list step and a bit set).  It prices the
   intersect-vs-verify decision below; only the order of magnitude
   matters. *)
let verify_factor = 16

(* The one intersect-vs-verify rule: testing k entries one by one with
   [Filter.matches] beats materializing a set whose [mat_cost] is [mat]
   when [verify_factor * k < mat], that is when k is at most this
   budget. *)
let verify_budget ~mat = if mat <= 0 then -1 else (mat - 1) / verify_factor

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
              if cur <= verify_budget ~mat:(mat_cost n nd) then C_verify { pred; r_est }
              else C_inter nd
            in
            (min cur r_est, c :: acc))
          (seed_e, []) rest
      in
      fnode (F_and (plan_filter vx n seed_f, List.rev rev_conjuncts)) est
  | Filter.Or [] -> fnode (F_access A_empty) 0
  | Filter.Or fs -> fnode (F_or (List.map (plan_filter vx n) fs)) est
  | Filter.Not f -> fnode (F_not (plan_filter vx n f)) est

let qnode q qshape q_est = { qshape; q_est; q_query = q; q_actual = skipped; q_mode = Unrun }

let rec plan_q vx n q =
  match q with
  | Query.Select f ->
      let fn = plan_filter vx n f in
      qnode q (Q_select fn) fn.f_est
  | Query.Minus (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode q (Q_minus (pa, pb)) pa.q_est
  | Query.Union (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode q (Q_union (pa, pb)) (min n (pa.q_est + pb.q_est))
  | Query.Inter (a, b) ->
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode q (Q_inter (pa, pb)) (min pa.q_est pb.q_est)
  | Query.Chi (ax, a, b) ->
      (* the result is a subset of q1 *)
      let pa = plan_q vx n a and pb = plan_q vx n b in
      qnode q (Q_chi (ax, pa, pb)) pa.q_est

let plan vx query =
  let ix = Vindex.index vx in
  { vx; ix; query; root = plan_q vx (Index.n ix) query }

(* {1 Execution}

   One evaluator runs every plan, with or without a memo: [exec] and
   [memo_eval] share it, and so the frame-first rule below.  It reads a
   memo and never writes one.  Every branch returns a freshly allocated
   bitset or a cached one that is never edited, so in-place residual
   filtering and [_into] accumulation never alias a caller-visible set.
   [f_actual]/[q_actual] are recorded as nodes complete. *)

(* Memo tables are keyed on the query itself: [Query.t] is a plain tree
   of variants over strings, so structural equality is equality of the
   canonical renderings (the parser round-trip tests pin that) without
   rendering anything.  A memo is scoped to one [(index, vindex)]
   snapshot and must be dropped with the snapshot it was built from. *)
type memo = {
  m_vx : Vindex.t;
  m_ix : Index.t;
  cache : (Query.t, Bitset.t) Hashtbl.t;
  mutable migrated : int;
  mutable dropped : int;
}

type ctx = { vx : Vindex.t; ix : Index.t; memo : memo option }

let cached c node =
  match c.memo with None -> None | Some m -> Hashtbl.find_opt m.cache node.q_query

let verify_into ix pred cand =
  (* [Bitset.iter] reads one byte ahead of the bits it visits, so
     unsetting the current member is safe. *)
  Bitset.iter
    (fun r -> if not (Filter.matches pred (Index.entry_of_rank ix r)) then Bitset.unset cand r)
    cand

let rec exec_f vx ix node =
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
        let cand = exec_f vx ix seed in
        List.iter
          (fun c ->
            if not (Bitset.is_empty cand) then
              match c with
              | C_inter nd -> Bitset.inter_into ~into:cand (exec_f vx ix nd)
              | C_verify { pred; _ } -> verify_into ix pred cand)
          conjuncts;
        cand
    | F_or nodes ->
        let acc = Bitset.create n in
        List.iter (fun nd -> Bitset.union_into ~into:acc (exec_f vx ix nd)) nodes;
        acc
    | F_not nd -> Bitset.complement (exec_f vx ix nd)
  in
  node.f_actual <- Bitset.count bs;
  bs

(* The frame-first rule prices an operand [node] that may be tested per
   candidate by its materialization cost: [mat_cost] when it is a
   selection, [-1] for a composite operand, since only a filter can be
   tested per entry.  [verify_budget] of that cost is the most
   candidates on which testing beats building; it is negative for a
   composite operand and for a selection whose estimate is 0, so the
   empty-operand skip still runs first there. *)
let operand_cost n node =
  match node.qshape with
  | Q_select fn -> mat_cost n fn
  | Q_minus _ | Q_union _ | Q_inter _ | Q_chi _ -> -1

let rec exec_q c node =
  match cached c node with
  | Some bs -> bs
  | None ->
      let bs =
        match node.qshape with
        | Q_select fn -> exec_f c.vx c.ix fn
        | Q_union (a, b) -> Bitset.union (exec_q c a) (exec_q c b)
        | Q_inter (a, b) -> narrow c node a b ~keep:true
        | Q_minus (a, b) -> narrow c node a b ~keep:false
        | Q_chi (ax, a, b) -> chi c node ax a b
      in
      node.q_actual <- Bitset.count bs;
      bs

(* [cands] keeps the members on which the selection [sel] of filter [f]
   answers [keep], each tested by membership in the memo's cached [sel]
   when there is one, by [Filter.matches] otherwise. *)
and verify c node sel f cands ~keep =
  node.q_mode <- Verify (Bitset.count cands);
  sel.q_actual <- verified;
  let test =
    match cached c sel with
    | Some bs -> Bitset.mem bs
    | None -> fun r -> Filter.matches f (Index.entry_of_rank c.ix r)
  in
  Bitset.iter (fun r -> if test r <> keep then Bitset.unset cands r) cands

(* ∩ and −: the left operand first, and an empty one skips the right.
   A right selection is tested on the left's members when there are at
   most its budget of them; otherwise it is built. *)
and narrow c node a b ~keep =
  let sa = exec_q c a in
  if Bitset.is_empty sa then sa
  else
    match (operand_cost (Index.n c.ix) b, b.q_query) with
    | mat, Query.Select f when Bitset.count sa <= verify_budget ~mat ->
        let cands = Bitset.copy sa in
        verify c node b f cands ~keep;
        cands
    | _ ->
        node.q_mode <- Sweep;
        let sb = exec_q c b in
        if keep then Bitset.inter sa sb else Bitset.diff sa sb

(* χ(ax, q1, q2) = q1 ∩ N_ax(q2).  Frame first when q1 is a selection
   with a positive budget: build q2, walk N from its members, and test
   q1 on N — unless N passes the budget, where building q1 and sweeping
   is cheaper.  The walk visits every frame member, one step each, so
   its budget is what is left of q1's cost after those steps.  Any
   other q1 is built first, and an empty one skips q2. *)
and chi c node ax a b =
  let n = Index.n c.ix in
  let sweep sb =
    let sa = exec_q c a in
    if Bitset.is_empty sa then sa
    else begin
      node.q_mode <- Sweep;
      Eval.chi c.ix ax sa sb
    end
  in
  match (operand_cost n a, a.q_query) with
  | mat, Query.Select f when verify_budget ~mat > 0 -> (
      let sb = exec_q c b in
      if Bitset.is_empty sb then Bitset.create n
      else
        let budget = verify_budget ~mat:(mat - Bitset.count sb) in
        match Eval.neighbourhood c.ix ax sb ~budget with
        | Some nb ->
            verify c node a f nb ~keep:true;
            nb
        | None -> sweep sb)
  | _ ->
      let sa = exec_q c a in
      if Bitset.is_empty sa then sa
      else
        let sb = exec_q c b in
        if Bitset.is_empty sb then Bitset.create n
        else begin
          node.q_mode <- Sweep;
          Eval.chi c.ix ax sa sb
        end

let exec (t : t) = exec_q { vx = t.vx; ix = t.ix; memo = None } t.root
let query (t : t) = t.query

let prefers_verify (t : t) ~candidates =
  candidates <= verify_budget ~mat:(operand_cost (Index.n t.ix) t.root)
let eval vx q = exec (plan vx q)
let eval_ids vx q = Index.ids_of (Vindex.index vx) (eval vx q)

(* {1 Explain} *)

let access_to_string = function
  | A_eq (a, v) -> Printf.sprintf "eq (%s=%s)" (Attr.to_string a) v
  | A_present a -> Printf.sprintf "present (%s=*)" (Attr.to_string a)
  | A_range { ge; attr; value } ->
      Printf.sprintf "range (%s%s%s)" (Attr.to_string attr) (if ge then ">=" else "<=") value
  | A_substr (a, s) -> Printf.sprintf "substr %s" (Filter.to_string (Filter.Substr (a, s)))
  | A_full -> "full"
  | A_empty -> "empty"

let card c =
  if c = skipped then "skipped" else if c = verified then "verified" else string_of_int c

let with_mode text = function
  | Unrun -> text
  | Verify k -> Printf.sprintf "%s verify %d" text k
  | Sweep -> text ^ " sweep"

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
        emit depth (with_mode "minus" qn.q_mode) qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_union (a, b) ->
        emit depth "union" qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_inter (a, b) ->
        emit depth (with_mode "inter" qn.q_mode) qn.q_est (card qn.q_actual);
        qgo (depth + 1) a;
        qgo (depth + 1) b
    | Q_chi (ax, a, b) ->
        emit depth
          (with_mode ("chi " ^ Query.axis_to_string ax) qn.q_mode)
          qn.q_est (card qn.q_actual);
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

   A memo run is a plan run through the memo: [exec_q] looks every node
   up before evaluating it.  Cached bitsets are shared — callers must
   treat results as immutable (all combinators here are persistent).

   Write contract: only [prewarm] and [memo_apply] write a memo.
   [prewarm] fills the memo of a snapshot nobody else holds yet (the
   admission scan, a [validate]); [memo_apply] builds the next
   version's memo from scratch.  [memo_eval] never writes, so once a
   snapshot is published any number of reader threads may evaluate
   through its memo ([Hashtbl] reads are safe when no writer runs, and
   each call plans its own nodes). *)

let memo_create vx =
  {
    m_vx = vx;
    m_ix = Vindex.index vx;
    cache = Hashtbl.create 256;
    migrated = 0;
    dropped = 0;
  }

(* A cached root answers before anything is planned. *)
let memo_eval m q =
  match Hashtbl.find_opt m.cache q with
  | Some bs -> bs
  | None ->
      exec_q { vx = m.m_vx; ix = m.m_ix; memo = Some m } (plan_q m.m_vx (Index.n m.m_ix) q)

(* Every subquery, children before parents (reversed preorder), so each
   one is evaluated over the cached results of the ones inside it.  All
   of them, not only the shared ones: a pointwise subquery cached here
   is what [memo_apply] carries to the next version, where reads would
   otherwise recompute it on every call. *)
let prewarm m qs =
  List.iter
    (fun q ->
      List.iter
        (fun sq ->
          if not (Hashtbl.mem m.cache sq) then Hashtbl.add m.cache sq (memo_eval m sq))
        (List.rev (Query.subqueries q)))
    qs

let memo_size m = Hashtbl.length m.cache

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
      migrated = m.migrated;
      dropped = m.dropped;
    }
  in
  Hashtbl.iter
    (fun q bs ->
      if pointwise q then begin
        let nbs = migrate bs in
        List.iter
          (fun (r', e) -> if pointwise_member q e then Bitset.set nbs r')
          inserted_ranks;
        Hashtbl.add m'.cache q nbs;
        m'.migrated <- m'.migrated + 1
      end
      else m'.dropped <- m'.dropped + 1)
    m.cache;
  m'

let memo_migration_stats m = (m.migrated, m.dropped)
