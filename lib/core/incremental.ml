open Bounds_model
open Bounds_query

(* --- the Figure 5 table ---------------------------------------------- *)

let testable_on_insert_req (_ : Structure_schema.rel) = true

let testable_on_delete_req = function
  | Structure_schema.Child | Structure_schema.Descendant -> false
  | Structure_schema.Parent | Structure_schema.Ancestor -> true

let testable_on_insert_forb (_ : Structure_schema.forb) = true
let testable_on_delete_forb (_ : Structure_schema.forb) = true

type scope = On_delta | On_base | On_updated | On_empty

let pp_scope ppf s =
  Format.pp_print_string ppf
    (match s with
    | On_delta -> "[Δ]"
    | On_base -> "[D]"
    | On_updated -> "[D±Δ]"
    | On_empty -> "[∅]")

let oc c = Printf.sprintf "(objectClass=%s)" (Oclass.to_string c)

let delta_query_insert (ci, r, cj) =
  match r with
  | Structure_schema.Child ->
      [ (oc ci, On_delta); ("chi_c " ^ oc ci, On_delta); (oc cj, On_delta) ]
  | Structure_schema.Descendant ->
      [ (oc ci, On_delta); ("chi_d " ^ oc ci, On_delta); (oc cj, On_delta) ]
  | Structure_schema.Parent ->
      [ (oc ci, On_delta); ("chi_p " ^ oc ci, On_delta); (oc cj, On_updated) ]
  | Structure_schema.Ancestor ->
      [ (oc ci, On_delta); ("chi_a " ^ oc ci, On_delta); (oc cj, On_updated) ]

let delta_query_delete_req (ci, r, cj) =
  match r with
  | Structure_schema.Child | Structure_schema.Descendant ->
      [ (oc ci, On_updated); ("chi " ^ oc ci, On_updated); (oc cj, On_updated) ]
  | Structure_schema.Parent | Structure_schema.Ancestor ->
      [ (oc ci, On_empty); ("chi " ^ oc ci, On_empty); (oc cj, On_empty) ]

(* --- insertion -------------------------------------------------------- *)

let classes_on_path base start =
  (* union of class sets of [start] and all its ancestors in [base] *)
  let rec go acc = function
    | None -> acc
    | Some id ->
        let e = Instance.entry base id in
        go (Oclass.Set.union acc (Entry.classes e)) (Instance.parent base id)
  in
  go Oclass.Set.empty start

let check_insert ?(extensions = false) ?delta_index (schema : Schema.t) ~base
    ~parent ~delta =
  if Instance.is_empty delta then Error "empty insertion"
  else
    match Instance.roots delta with
    | [] | _ :: _ :: _ -> Error "insertion must be a single-rooted subtree"
    | [ delta_root ] -> (
        match parent with
        | Some p when not (Instance.mem base p) ->
            Error (Printf.sprintf "insertion parent %d does not exist" p)
        | _ ->
            let viols = ref [] in
            let add v = viols := v :: !viols in
            (* content: per-entry, so Δ-local *)
            Instance.iter
              (fun e -> List.iter add (Content_legality.check_entry schema e))
              delta;
            if extensions then
              Instance.iter
                (fun e -> List.iter add (Single_valued.check_entry schema e))
                delta;
            (* structure — the Δ index is built at most once per
               transaction step: callers that also need it (to splice Δ
               into a live index) pass it in *)
            let ix =
              match delta_index with Some ix -> ix | None -> Index.create delta
            in
            let path_classes = classes_on_path base parent in
            let parent_classes =
              match parent with
              | None -> Oclass.Set.empty
              | Some p -> Entry.classes (Instance.entry base p)
            in
            let delta_has cls =
              not (Bitset.is_empty (Eval.eval ix (Query.select_class cls)))
            in
            List.iter
              (fun ((ci, r, cj) as rel) ->
                let violators_within ax =
                  let si = Query.select_class ci and sj = Query.select_class cj in
                  Eval.eval ix (Query.Minus (si, Query.Chi (ax, si, sj)))
                in
                match r with
                | Structure_schema.Child ->
                    Bitset.iter
                      (fun rk ->
                        add
                          (Violation.Unsatisfied_rel
                             { entry = Index.id_of_rank ix rk; rel }))
                      (violators_within Query.Child)
                | Structure_schema.Descendant ->
                    Bitset.iter
                      (fun rk ->
                        add
                          (Violation.Unsatisfied_rel
                             { entry = Index.id_of_rank ix rk; rel }))
                      (violators_within Query.Descendant)
                | Structure_schema.Parent ->
                    (* Δ-root's parent lives in the base *)
                    Bitset.iter
                      (fun rk ->
                        let id = Index.id_of_rank ix rk in
                        let satisfied_by_base =
                          id = delta_root && Oclass.Set.mem cj parent_classes
                        in
                        if not satisfied_by_base then
                          add (Violation.Unsatisfied_rel { entry = id; rel }))
                      (violators_within Query.Parent)
                | Structure_schema.Ancestor ->
                    (* every Δ entry shares the base ancestors of the root *)
                    if not (Oclass.Set.mem cj path_classes) then
                      Bitset.iter
                        (fun rk ->
                          add
                            (Violation.Unsatisfied_rel
                               { entry = Index.id_of_rank ix rk; rel }))
                        (violators_within Query.Ancestor))
              (Structure_schema.required_rels schema.structure);
            List.iter
              (fun ((ci, f, cj) as rel) ->
                let ax =
                  match f with
                  | Structure_schema.F_child -> Query.Child
                  | Structure_schema.F_descendant -> Query.Descendant
                in
                (* offending pairs within Δ *)
                let offenders =
                  Eval.eval ix
                    (Query.Chi (ax, Query.select_class ci, Query.select_class cj))
                in
                Bitset.iter
                  (fun rk ->
                    let src = Index.id_of_rank ix rk in
                    let has_cls id = Entry.has_class (Instance.entry delta id) cj in
                    let targets =
                      match f with
                      | Structure_schema.F_child ->
                          List.filter has_cls (Instance.children delta src)
                      | Structure_schema.F_descendant ->
                          List.filter has_cls (Instance.descendants delta src)
                    in
                    List.iter
                      (fun target ->
                        add (Violation.Forbidden_rel { source = src; target; rel }))
                      targets)
                  offenders;
                (* cross pairs: base ancestors of the insertion point above,
                   Δ entries below *)
                match f with
                | Structure_schema.F_child ->
                    (match parent with
                    | Some p
                      when Oclass.Set.mem ci parent_classes
                           && Entry.has_class (Instance.entry delta delta_root) cj ->
                        add
                          (Violation.Forbidden_rel
                             { source = p; target = delta_root; rel })
                    | _ -> ())
                | Structure_schema.F_descendant ->
                    if Oclass.Set.mem ci path_classes && delta_has cj then begin
                      (* all base ancestors of class ci × all Δ entries of
                         class cj — the exact new offending pairs *)
                      let rec anc_sources acc = function
                        | None -> List.rev acc
                        | Some id ->
                            let acc =
                              if Entry.has_class (Instance.entry base id) ci then
                                id :: acc
                              else acc
                            in
                            anc_sources acc (Instance.parent base id)
                      in
                      let sources = anc_sources [] parent in
                      let targets =
                        Index.ids_of ix (Eval.eval ix (Query.select_class cj))
                      in
                      List.iter
                        (fun src ->
                          List.iter
                            (fun target ->
                              add
                                (Violation.Forbidden_rel { source = src; target; rel }))
                            targets)
                        sources
                    end)
              (Structure_schema.forbidden_rels schema.structure);
            (* required classes: insertion can only help — no check *)
            Ok (List.rev !viols))

(* --- deletion --------------------------------------------------------- *)

(* Depth-first search for an entry of class [cls] strictly below [id],
   with early exit. *)
let rec has_descendant_of_class inst cls id =
  List.exists
    (fun c ->
      Entry.has_class (Instance.entry inst c) cls
      || has_descendant_of_class inst cls c)
    (Instance.children inst id)

let check_delete ?class_count (schema : Schema.t) ~base ~root =
  if not (Instance.mem base root) then
    Error (Printf.sprintf "no entry %d to delete" root)
  else begin
    let remaining =
      match Instance.remove_subtree root base with
      | Ok r -> r
      | Error e -> failwith (Instance.error_to_string e)
    in
    let viols = ref [] in
    let add v = viols := v :: !viols in
    let parent = Instance.parent base root in
    let ancestors = Instance.ancestors base root in
    (* required child: only the deletion parent lost a child *)
    List.iter
      (fun ((ci, r, cj) as rel) ->
        match (r, parent) with
        | Structure_schema.Child, Some p ->
            let pe = Instance.entry remaining p in
            if Entry.has_class pe ci then begin
              let ok =
                List.exists
                  (fun c -> Entry.has_class (Instance.entry remaining c) cj)
                  (Instance.children remaining p)
              in
              if not ok then add (Violation.Unsatisfied_rel { entry = p; rel })
            end
        | Structure_schema.Descendant, _ ->
            (* only ancestors of the deleted root lost descendants; check
               from the nearest ci-ancestor upward with early success *)
            let rec check_up = function
              | [] -> ()
              | a :: above ->
                  if Entry.has_class (Instance.entry remaining a) ci then
                    if has_descendant_of_class remaining cj a then
                      () (* that witness also serves every ancestor above *)
                    else begin
                      add (Violation.Unsatisfied_rel { entry = a; rel });
                      check_up above
                    end
                  else check_up above
            in
            check_up ancestors
        | (Structure_schema.Child | Structure_schema.Parent | Structure_schema.Ancestor), _ ->
            (* parent/ancestor requirements cannot break: surviving entries
               keep their ancestors (Figure 5: no check) *)
            ())
      (Structure_schema.required_rels schema.structure);
    (* forbidden relationships: deletion removes pairs, never adds *)
    (* required classes *)
    let deleted_counts =
      let rec count acc id =
        let acc =
          Oclass.Set.fold
            (fun c m ->
              Oclass.Map.update c
                (fun n -> Some (1 + Option.value ~default:0 n))
                m)
            (Entry.classes (Instance.entry base id))
            acc
        in
        List.fold_left count acc (Instance.children base id)
      in
      count Oclass.Map.empty root
    in
    Oclass.Set.iter
      (fun c ->
        match Oclass.Map.find_opt c deleted_counts with
        | None -> () (* no entry of that class deleted *)
        | Some k ->
            let still_there =
              match class_count with
              | Some count -> count c - k > 0
              | None -> (
                  (* stop at the first survivor of class c *)
                  match
                    Instance.iter
                      (fun e -> if Entry.has_class e c then raise_notrace Exit)
                      remaining
                  with
                  | () -> false
                  | exception Exit -> true)
            in
            if not still_there then
              add (Violation.Missing_required_class { cls = c }))
      (Structure_schema.required_classes schema.structure);
    Ok (List.rev !viols)
  end
