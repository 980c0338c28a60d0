type scope = Base | One_level | Subtree

let scope_to_string = function
  | Base -> "base"
  | One_level -> "one"
  | Subtree -> "sub"

let scope_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "base" -> Ok Base
  | "one" | "onelevel" | "one-level" -> Ok One_level
  | "sub" | "subtree" -> Ok Subtree
  | other -> Error (Printf.sprintf "unknown scope %S (base/one/sub)" other)

(* A scope's candidates, in increasing (preorder) rank order: one rank
   interval [[lo, hi]] — the base alone, its subtree, or without a base
   the whole forest — or a list of sibling ranks — the base's children,
   the roots, or the roots' children. *)
type candidates = Interval of int * int | Ranks of int list

let siblings ix ~lo ~hi = List.rev (Eval.fold_siblings List.cons ix ~lo ~hi [])

let children ix r = siblings ix ~lo:(r + 1) ~hi:(Index.extent_of_rank ix r)

let candidates ix ~base scope =
  let n = Index.n ix in
  match (base, scope) with
  | None, Subtree -> Interval (0, n - 1)
  | None, Base -> Ranks (siblings ix ~lo:0 ~hi:(n - 1))
  | None, One_level ->
      Ranks (List.concat_map (children ix) (siblings ix ~lo:0 ~hi:(n - 1)))
  | Some id, Base ->
      let r = Index.rank ix id in
      Interval (r, r)
  | Some id, One_level -> Ranks (children ix (Index.rank ix id))
  | Some id, Subtree ->
      let r = Index.rank ix id in
      Interval (r, Index.extent_of_rank ix r)

(* Scope first: [f] sees the id of each candidate satisfying [filter],
   in rank order.  Without a value index, or when the planner's own
   rule prices [verify_factor] x candidates below materializing the
   filter, each candidate is tested with [Filter.matches]; otherwise the
   filter is evaluated once and only its members inside the scope are
   visited. *)
let iter_matches ?vindex ix ~base scope filter f =
  let cands = candidates ix ~base scope in
  let k =
    match cands with Interval (lo, hi) -> hi - lo + 1 | Ranks rs -> List.length rs
  in
  let members =
    match vindex with
    | Some vx when k > 0 ->
        let plan = Plan.plan vx (Query.Select filter) in
        if Plan.prefers_verify plan ~candidates:k then None else Some (Plan.exec plan)
    | _ -> None
  in
  let test e = if Filter.matches filter e then f (Bounds_model.Entry.id e) in
  let member r = f (Index.id_of_rank ix r) in
  match (members, cands) with
  | None, Interval (lo, hi) -> Index.iter_entries ix ~lo ~hi (fun _ e -> test e)
  | None, Ranks rs -> List.iter (fun r -> test (Index.entry_of_rank ix r)) rs
  | Some bs, Interval (lo, hi) -> Bitset.iter_range member bs ~lo ~hi:(hi + 1)
  | Some bs, Ranks rs -> List.iter (fun r -> if Bitset.mem bs r then member r) rs

let search ?vindex ix ~base scope filter =
  let acc = ref [] in
  iter_matches ?vindex ix ~base scope filter (fun id -> acc := id :: !acc);
  List.rev !acc

let count ?vindex ix ~base scope filter =
  let k = ref 0 in
  iter_matches ?vindex ix ~base scope filter (fun _ -> incr k);
  !k
