open Bounds_model

(* Class schema (Definition 2.7):
   - only declared classes;
   - at least one core class;
   - the core classes must be exactly the upward closure of the deepest
     one (equivalent to: closed under superclasses and pairwise
     comparable, i.e. the single-inheritance elements  ci |- cj  and
     ci |-/ cj  all hold);
   - each auxiliary class allowed by some core class of the entry. *)
let check_classes (schema : Schema.t) e =
  let cs = schema.classes in
  let id = Entry.id e in
  let classes = Entry.classes e in
  let viols = ref [] in
  let add v = viols := v :: !viols in
  let cores, auxs, _unknown =
    Oclass.Set.fold
      (fun c (cores, auxs, unknown) ->
        if Class_schema.is_core cs c then (c :: cores, auxs, unknown)
        else if Class_schema.is_aux cs c then (cores, c :: auxs, unknown)
        else begin
          add (Violation.Unknown_class { entry = id; cls = c });
          (cores, auxs, c :: unknown)
        end)
      classes ([], [], [])
  in
  (match cores with
  | [] -> add (Violation.No_core_class { entry = id })
  | _ ->
      (* deepest core class; its closure must equal the core classes held *)
      let deepest =
        List.fold_left
          (fun best c ->
            if Class_schema.depth_of cs c > Class_schema.depth_of cs best then c
            else best)
          (List.hd cores) (List.tl cores)
      in
      let closure = Class_schema.up_closure cs deepest in
      List.iter
        (fun c ->
          if not (Oclass.Set.mem c closure) then
            add
              (Violation.Incomparable_classes { entry = id; c1 = deepest; c2 = c }))
        cores;
      Oclass.Set.iter
        (fun super ->
          if not (Oclass.Set.mem super classes) then
            add
              (Violation.Missing_superclass { entry = id; cls = deepest; super }))
        closure);
  List.iter
    (fun aux ->
      let allowed =
        List.exists
          (fun core -> Oclass.Set.mem aux (Class_schema.aux_of cs core))
          cores
      in
      if not allowed then add (Violation.Aux_not_allowed { entry = id; aux }))
    auxs;
  List.rev !viols

let check_attributes (schema : Schema.t) e =
  let id = Entry.id e in
  let classes = Entry.classes e in
  let viols = ref [] in
  let add v = viols := v :: !viols in
  (* every required attribute of every class of the entry is present *)
  Oclass.Set.iter
    (fun c ->
      Attr.Set.iter
        (fun attr ->
          if not (Attr.equal attr Attr.object_class) && Entry.values e attr = [] then
            add (Violation.Missing_required_attr { entry = id; cls = c; attr }))
        (Attribute_schema.required schema.attributes c))
    classes;
  (* every present attribute is allowed by some class of the entry *)
  let allowed_union =
    Oclass.Set.fold
      (fun c acc -> Attr.Set.union acc (Attribute_schema.allowed schema.attributes c))
      classes Attr.Set.empty
  in
  Attr.Set.iter
    (fun attr ->
      if
        (not (Attr.equal attr Attr.object_class))
        && not (Attr.Set.mem attr allowed_union)
      then add (Violation.Attr_not_allowed { entry = id; attr }))
    (Entry.attributes e);
  List.rev !viols

let check_typing (schema : Schema.t) e =
  let id = Entry.id e in
  List.filter_map
    (fun (attr, v) ->
      let ty = Typing.find schema.typing attr in
      if Value.has_type ty v then None
      else Some (Violation.Type_violation { entry = id; attr; expected = ty }))
    (Entry.stored_pairs e)

let check_entry schema e =
  check_typing schema e @ check_classes schema e @ check_attributes schema e

(* Content legality is a per-entry test (Section 3.1): the per-entry
   lists, concatenated in traversal order. *)
let check schema inst = List.concat_map (check_entry schema) (Instance.entries inst)

let entry_is_legal schema e = check_entry schema e = []
let is_legal schema inst = Instance.fold (fun e ok -> ok && entry_is_legal schema e) inst true
