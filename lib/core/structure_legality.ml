open Bounds_model
open Bounds_query

(* All offending children / descendants of [src], for the witness pairs in
   Forbidden_rel reports (one report per offending pair, matching the
   naive pairwise checker). *)
let find_targets inst f cj src =
  let has_class id = Entry.has_class (Instance.entry inst id) cj in
  match f with
  | Structure_schema.F_child -> List.filter has_class (Instance.children inst src)
  | Structure_schema.F_descendant ->
      List.filter has_class (Instance.descendants inst src)

let check ?index ?vindex ?memo (schema : Schema.t) inst =
  let ix = match index with Some ix -> ix | None -> Index.create inst in
  let obligations = Translate.all schema.structure in
  (* Hash-consed memo over this (index, vindex) snapshot: the obligation
     queries share their class selections and χ frames heavily
     (σ−(s_i, χ(ax, s_i, s_j)) alone names s_i twice), so the prewarm
     evaluates and caches every subquery once, children first, and then
     every obligation is read from the cache.  A caller-supplied [memo]
     (e.g. a session's cache migrated across updates) is used as is:
     prewarm only tops up what migration dropped. *)
  let memo =
    match memo with
    | Some m -> m
    | None ->
        let vx = match vindex with Some vx -> vx | None -> Vindex.create ix in
        Plan.memo_create vx
  in
  Plan.prewarm memo (List.map (fun (_, q, _) -> q) obligations);
  let viols_of (oblig, q, expect) =
    let result = Plan.memo_eval memo q in
    let viols = ref [] in
    let add v = viols := v :: !viols in
    (match (expect, oblig) with
    | Translate.Must_be_nonempty, Translate.Oblig_class c ->
        if Bitset.is_empty result then
          add (Violation.Missing_required_class { cls = c })
    | Translate.Must_be_empty, Translate.Oblig_required rel ->
        List.iter
          (fun id -> add (Violation.Unsatisfied_rel { entry = id; rel }))
          (Index.ids_of ix result)
    | Translate.Must_be_empty, Translate.Oblig_forbidden ((_, f, cj) as rel) ->
        List.iter
          (fun src ->
            match find_targets inst f cj src with
            | [] -> assert false (* query said so *)
            | targets ->
                List.iter
                  (fun target ->
                    add (Violation.Forbidden_rel { source = src; target; rel }))
                  targets)
          (Index.ids_of ix result)
    | Translate.Must_be_nonempty, (Translate.Oblig_required _ | Translate.Oblig_forbidden _)
    | Translate.Must_be_empty, Translate.Oblig_class _ ->
        assert false (* Translate.all pairs expectations correctly *));
    List.rev !viols
  in
  List.concat_map viols_of obligations

let is_legal ?index ?vindex ?memo schema inst =
  check ?index ?vindex ?memo schema inst = []
