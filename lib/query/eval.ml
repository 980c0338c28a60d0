let eval_filter ix f =
  let bs = Bitset.create (Index.n ix) in
  Index.iter_entries ix ~lo:0 ~hi:(Index.n ix - 1) (fun r e ->
      if Filter.matches f e then Bitset.set bs r);
  bs

(* result = q1 ∩ { e | some child of e is in q2 }: iterate the members of
   q2 (the sparse candidate set) and keep their parents that lie in q1. *)
let chi_child ix q1 q2 =
  let result = Bitset.create (Index.n ix) in
  Bitset.iter
    (fun r ->
      let p = Index.parent_rank ix r in
      if p >= 0 && Bitset.mem q1 p then Bitset.set result p)
    q2;
  result

(* result = { r ∈ q1 | parent of r is in q2 }: iterate q1 — the result is
   a subset of it — instead of scanning every rank (mirrors the chi_child
   pattern). *)
let chi_parent ix q1 q2 =
  let result = Bitset.create (Index.n ix) in
  Bitset.iter
    (fun r ->
      let p = Index.parent_rank ix r in
      if p >= 0 && Bitset.mem q2 p then Bitset.set result r)
    q1;
  result

(* One flag per depth, grown on demand: the full sweeps below keep what
   they know of the current root path here instead of looking parents
   up. *)
let flags () = ref (Bytes.make 64 '\000')

let[@inline] flag fl d = d < Bytes.length !fl && Bytes.get !fl d <> '\000'

let set_flag fl d v =
  if d >= Bytes.length !fl then begin
    let b = Bytes.make (2 * (d + 1)) '\000' in
    Bytes.blit !fl 0 b 0 (Bytes.length !fl);
    fl := b
  end;
  Bytes.set !fl d (if v then '\001' else '\000')

(* Reverse preorder sweep.  Between two ranks of depth d the sweep
   visits exactly the subtree of the lower one, so [below.(d + 1)]
   holds, when a rank of depth d is reached, whether one of its
   children is in q2 or has a descendant there; it is cleared for the
   next rank of depth d. *)
let chi_descendant ix q1 q2 =
  let result = Bitset.create (Index.n ix) in
  let below = flags () in
  Index.iter_depths_rev ix (fun r d ->
      let b = flag below (d + 1) in
      if b then begin
        set_flag below (d + 1) false;
        if Bitset.mem q1 r then Bitset.set result r
      end;
      if b || Bitset.mem q2 r then set_flag below d true);
  result

(* Forward preorder sweep: the last rank seen at depth d - 1 is the
   parent of a rank at depth d, and [above.(d)] says whether the last
   rank seen at depth d is in q2 or below a member of it. *)
let chi_ancestor ix q1 q2 =
  let result = Bitset.create (Index.n ix) in
  let above = flags () in
  Index.iter_depths ix (fun r d ->
      let a = d > 0 && flag above (d - 1) in
      if a && Bitset.mem q1 r then Bitset.set result r;
      set_flag above d (a || Bitset.mem q2 r));
  result

let chi ix ax s1 s2 =
  match ax with
  | Query.Child -> chi_child ix s1 s2
  | Query.Parent -> chi_parent ix s1 s2
  | Query.Descendant -> chi_descendant ix s1 s2
  | Query.Ancestor -> chi_ancestor ix s1 s2

(* The ranks whose subtrees tile [[lo, hi]]: the next sibling of rank
   [c] is [extent c + 1], so folding over k siblings costs O(k) extent
   reads, not a scan of their subtrees. *)
let rec fold_siblings f ix ~lo ~hi acc =
  if lo > hi then acc
  else fold_siblings f ix ~lo:(Index.extent_of_rank ix lo + 1) ~hi (f lo acc)

exception Over_budget

(* Walk N_ax(frame) from the frame's members, in increasing rank order:
   parents (Child) and proper ancestors (Descendant) by parent pointers,
   children (Parent) by extent jumps, proper descendants (Ancestor) as
   the intervals (r, extent r].  A Descendant chain stops at its first
   marked rank, whose ancestors are marked already; an Ancestor frame
   member inside an earlier member's interval adds nothing. *)
let neighbourhood ix ax frame ~budget =
  let nb = Bitset.create (Index.n ix) in
  let size = ref 0 in
  let add r =
    incr size;
    if !size > budget then raise_notrace Over_budget;
    Bitset.set nb r
  in
  let covered = ref (-1) in
  let visit r =
    match ax with
    | Query.Child ->
        let p = Index.parent_rank ix r in
        if p >= 0 && not (Bitset.mem nb p) then add p
    | Query.Parent ->
        fold_siblings (fun c () -> add c) ix ~lo:(r + 1) ~hi:(Index.extent_of_rank ix r) ()
    | Query.Descendant ->
        let rec up p =
          if p >= 0 && not (Bitset.mem nb p) then begin
            add p;
            up (Index.parent_rank ix p)
          end
        in
        up (Index.parent_rank ix r)
    | Query.Ancestor ->
        if r > !covered then begin
          covered := Index.extent_of_rank ix r;
          for d = r + 1 to !covered do
            add d
          done
        end
  in
  match Bitset.iter visit frame with
  | () -> Some nb
  | exception Over_budget -> None

(* With a value index, answer Eq/Present leaves from the hash table and
   push boolean structure into set algebra; other leaves fall back to the
   entry scan. *)
let rec eval_filter_indexed vx ix f =
  match f with
  | Filter.Eq (a, v) -> Vindex.lookup_eq vx a v
  | Filter.Present a -> Vindex.lookup_present vx a
  | Filter.And fs ->
      (* Accumulate in place and stop as soon as the accumulator drains —
         a dead conjunction cannot come back, so the remaining conjuncts
         (possibly full scans) need not run at all. *)
      let rec go acc = function
        | [] -> acc
        | f :: rest ->
            Bitset.inter_into ~into:acc (eval_filter_indexed vx ix f);
            if Bitset.is_empty acc then acc else go acc rest
      in
      go (Bitset.full (Index.n ix)) fs
  | Filter.Or fs ->
      let acc = Bitset.create (Index.n ix) in
      List.iter
        (fun f -> Bitset.union_into ~into:acc (eval_filter_indexed vx ix f))
        fs;
      acc
  | Filter.Not f -> Bitset.complement (eval_filter_indexed vx ix f)
  | Filter.Ge _ | Filter.Le _ | Filter.Substr _ -> eval_filter ix f

let rec eval ?vindex ix q =
  match q with
  | Query.Select f -> (
      match vindex with
      | Some vx -> eval_filter_indexed vx ix f
      | None -> eval_filter ix f)
  | Query.Minus (a, b) ->
      Bitset.diff (eval ?vindex ix a) (eval ?vindex ix b)
  | Query.Union (a, b) ->
      Bitset.union (eval ?vindex ix a) (eval ?vindex ix b)
  | Query.Inter (a, b) ->
      Bitset.inter (eval ?vindex ix a) (eval ?vindex ix b)
  | Query.Chi (ax, a, b) ->
      let s1 = eval ?vindex ix a and s2 = eval ?vindex ix b in
      chi ix ax s1 s2

let eval_ids ?vindex ix q = Index.ids_of ix (eval ?vindex ix q)

(* Emptiness tests (the legality hot path) don't need the full result:
   every binary operator except Union is left-absorbing — an empty left
   operand forces an empty result — so evaluate the left side first and
   skip the right side entirely when it already drained. *)
let rec is_empty ?vindex ix q =
  match q with
  | Query.Union (a, b) ->
      is_empty ?vindex ix a && is_empty ?vindex ix b
  | Query.Minus (a, b) ->
      let sa = eval ?vindex ix a in
      Bitset.is_empty sa
      || Bitset.is_empty (Bitset.diff sa (eval ?vindex ix b))
  | Query.Inter (a, b) ->
      let sa = eval ?vindex ix a in
      Bitset.is_empty sa
      || Bitset.is_empty (Bitset.inter sa (eval ?vindex ix b))
  | Query.Chi (ax, a, b) ->
      (* χ results are subsets of q1 and empty whenever q2 is empty. *)
      let s1 = eval ?vindex ix a in
      Bitset.is_empty s1
      ||
      let s2 = eval ?vindex ix b in
      Bitset.is_empty s2 || Bitset.is_empty (chi ix ax s1 s2)
  | Query.Select _ -> Bitset.is_empty (eval ?vindex ix q)
