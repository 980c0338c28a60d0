open Bounds_model
open Bounds_core
open Bounds_query

(* --- secondary measure -------------------------------------------------- *)

(* [Case.size] counts structural weight (entries, pairs, ops, AST nodes),
   which value-simplification steps do not decrease.  The shrinker orders
   cases lexicographically by (size, detail) where [detail] is the total
   length of every embedded string, so replacing "some long value" by ""
   is still strictly-decreasing progress. *)

let value_detail = function
  | Value.String s -> String.length s
  | Value.Dn s -> String.length s
  | Value.Int _ | Value.Bool _ -> 1

let entry_detail e =
  String.length (Entry.rdn e)
  + List.fold_left (fun n (_, v) -> n + value_detail v) 0 (Entry.stored_pairs e)

let rec filter_detail = function
  | Filter.Present _ -> 0
  | Filter.Eq (_, v) | Filter.Ge (_, v) | Filter.Le (_, v) -> String.length v
  | Filter.Substr (_, { initial; any; final }) ->
      let o = function Some s -> String.length s + 1 | None -> 0 in
      o initial + o final + List.fold_left (fun n s -> n + String.length s + 1) 0 any
  | Filter.And fs | Filter.Or fs ->
      List.fold_left (fun n f -> n + filter_detail f) 0 fs
  | Filter.Not f -> filter_detail f

let rec query_detail = function
  | Query.Select f -> filter_detail f
  | Query.Minus (a, b) | Query.Union (a, b) | Query.Inter (a, b)
  | Query.Chi (_, a, b) ->
      query_detail a + query_detail b

let detail (c : Case.t) =
  (match c.instance with
  | Some inst -> Instance.fold (fun e n -> n + entry_detail e) inst 0
  | None -> 0)
  + List.fold_left
      (fun n op ->
        n
        + match op with Update.Insert { entry; _ } -> entry_detail entry | _ -> 0)
      0 c.ops
  + (match c.query with Some q -> query_detail q | None -> 0)
  + (match c.filter with Some f -> filter_detail f | None -> 0)
  + match c.text with Some t -> String.length t | None -> 0

let measure c = (Case.size c, detail c)

(* --- sub-term shrinkers ------------------------------------------------- *)

(* Candidates for a string: aggressive first.  Every candidate is strictly
   shorter, so detail strictly decreases. *)
let shrink_string s =
  let n = String.length s in
  if n = 0 then []
  else
    let cands = ref [] in
    let add s' = if not (List.mem s' !cands) then cands := s' :: !cands in
    add "";
    if n > 1 then (
      add (String.sub s 0 (n / 2));
      add (String.sub s (n / 2) (n - n / 2));
      add (String.sub s 0 (n - 1));
      add (String.sub s 1 (n - 1)));
    List.rev !cands

let shrink_value = function
  | Value.String s -> List.map (fun s' -> Value.String s') (shrink_string s)
  | Value.Dn s -> List.map (fun s' -> Value.Dn s') (shrink_string s)
  | Value.Int n -> if n = 0 then [] else [ Value.Int 0 ]
  | Value.Bool b -> if b then [ Value.Bool false ] else []

(* Entry candidates: drop a pair, drop a class (keeping >= 1), simplify a
   value, shorten the rdn. *)
let shrink_entry e =
  let pairs = Entry.stored_pairs e in
  let drop_pair =
    List.map (fun (a, v) -> Entry.remove_value a v e) pairs
  in
  let drop_class =
    if Entry.n_classes e > 1 then
      List.map
        (fun c -> Entry.with_classes (Oclass.Set.remove c (Entry.classes e)) e)
        (Oclass.Set.elements (Entry.classes e))
    else []
  in
  let simplify_value =
    List.concat_map
      (fun (a, v) ->
        List.map
          (fun v' -> Entry.add_value a v' (Entry.remove_value a v e))
          (shrink_value v))
      pairs
  in
  let shorten_rdn =
    List.filter_map
      (fun r -> if r = "" then None else Some (Entry.with_rdn r e))
      (shrink_string (Entry.rdn e))
  in
  drop_pair @ drop_class @ simplify_value @ shorten_rdn

let rec shrink_filter f =
  match f with
  | Filter.Present _ -> []
  | Filter.Eq (a, v) ->
      Filter.Present a :: List.map (fun v' -> Filter.Eq (a, v')) (shrink_string v)
  | Filter.Ge (a, v) ->
      Filter.Present a :: List.map (fun v' -> Filter.Ge (a, v')) (shrink_string v)
  | Filter.Le (a, v) ->
      Filter.Present a :: List.map (fun v' -> Filter.Le (a, v')) (shrink_string v)
  | Filter.Substr (a, ({ initial; any; final } as p)) ->
      (* never propose the degenerate all-empty pattern: it is unprintable
         — its only rendering is the presence filter, which reads back as
         [Present] *)
      let keep q =
        match q with
        | { Filter.initial = None; any = []; final = None } -> None
        | q -> Some (Filter.Substr (a, q))
      in
      Filter.Present a
      :: List.filter_map Fun.id
           ((match initial with
            | Some _ -> [ keep { p with initial = None } ]
            | None -> [])
           @ (match final with
             | Some _ -> [ keep { p with final = None } ]
             | None -> [])
           @ List.mapi
               (fun i _ -> keep { p with any = List.filteri (fun j _ -> j <> i) any })
               any)
  | Filter.And fs ->
      fs
      @ List.mapi (fun i _ -> Filter.And (List.filteri (fun j _ -> j <> i) fs)) fs
      @ List.concat
          (List.mapi
             (fun i fi ->
               List.map
                 (fun fi' ->
                   Filter.And (List.mapi (fun j fj -> if i = j then fi' else fj) fs))
                 (shrink_filter fi))
             fs)
  | Filter.Or fs ->
      fs
      @ List.mapi (fun i _ -> Filter.Or (List.filteri (fun j _ -> j <> i) fs)) fs
      @ List.concat
          (List.mapi
             (fun i fi ->
               List.map
                 (fun fi' ->
                   Filter.Or (List.mapi (fun j fj -> if i = j then fi' else fj) fs))
                 (shrink_filter fi))
             fs)
  | Filter.Not f -> f :: List.map (fun f' -> Filter.Not f') (shrink_filter f)

let rec shrink_query q =
  match q with
  | Query.Select f -> List.map (fun f' -> Query.Select f') (shrink_filter f)
  | Query.Minus (a, b) ->
      (a :: b
       :: List.map (fun a' -> Query.Minus (a', b)) (shrink_query a))
      @ List.map (fun b' -> Query.Minus (a, b')) (shrink_query b)
  | Query.Union (a, b) ->
      (a :: b
       :: List.map (fun a' -> Query.Union (a', b)) (shrink_query a))
      @ List.map (fun b' -> Query.Union (a, b')) (shrink_query b)
  | Query.Inter (a, b) ->
      (a :: b
       :: List.map (fun a' -> Query.Inter (a', b)) (shrink_query a))
      @ List.map (fun b' -> Query.Inter (a, b')) (shrink_query b)
  | Query.Chi (ax, a, b) ->
      (a :: b
       :: List.map (fun a' -> Query.Chi (ax, a', b)) (shrink_query a))
      @ List.map (fun b' -> Query.Chi (ax, a, b')) (shrink_query b)

(* Instance candidates: drop each subtree, then per-entry rewrites. *)
let shrink_instance inst =
  let drop_subtree =
    List.filter_map
      (fun id ->
        match Instance.remove_subtree id inst with
        | Ok inst' -> Some inst'
        | Error _ -> None)
      (Instance.ids inst)
  in
  let rewrite_entry =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun e' ->
            match Instance.update_entry (Entry.id e) (fun _ -> e') inst with
            | Ok inst' -> Some inst'
            | Error _ -> None)
          (shrink_entry e))
      (Instance.entries inst)
  in
  drop_subtree @ rewrite_entry

(* Schema candidates: drop keys / single-valued / individual structure
   constraints, rebuilt through [Schema.make] (rejecting ill-formed
   combinations). *)
let shrink_schema (s : Schema.t) =
  let rebuild ?(single_valued = Attr.Set.elements s.single_valued)
      ?(keys = Attr.Set.elements s.keys) ?(structure = s.structure) () =
    match
      Schema.make ~typing:s.typing ~attributes:s.attributes ~classes:s.classes
        ~structure ~single_valued ~keys ()
    with
    | Ok s' -> Some s'
    | Error _ -> None
  in
  let drop_keys =
    List.map
      (fun k ->
        rebuild ~keys:(Attr.Set.elements (Attr.Set.remove k s.keys)) ())
      (Attr.Set.elements s.keys)
  in
  let drop_sv =
    List.map
      (fun a ->
        rebuild
          ~single_valued:(Attr.Set.elements (Attr.Set.remove a s.single_valued))
          ())
      (Attr.Set.elements s.single_valued)
  in
  let req_classes = Oclass.Set.elements (Structure_schema.required_classes s.structure) in
  let req_rels = Structure_schema.required_rels s.structure in
  let forb_rels = Structure_schema.forbidden_rels s.structure in
  let rebuild_structure ~req_classes ~req_rels ~forb_rels =
    let st =
      List.fold_left (fun st c -> Structure_schema.require_class c st)
        Structure_schema.empty req_classes
    in
    let st =
      List.fold_left (fun st (c, r, d) -> Structure_schema.require c r d st) st req_rels
    in
    let st =
      List.fold_left (fun st (c, f, d) -> Structure_schema.forbid c f d st) st forb_rels
    in
    rebuild ~structure:st ()
  in
  let drop_structure =
    List.mapi
      (fun i _ ->
        rebuild_structure
          ~req_classes:(List.filteri (fun j _ -> j <> i) req_classes)
          ~req_rels ~forb_rels)
      req_classes
    @ List.mapi
        (fun i _ ->
          rebuild_structure ~req_classes
            ~req_rels:(List.filteri (fun j _ -> j <> i) req_rels)
            ~forb_rels)
        req_rels
    @ List.mapi
        (fun i _ ->
          rebuild_structure ~req_classes ~req_rels
            ~forb_rels:(List.filteri (fun j _ -> j <> i) forb_rels))
        forb_rels
  in
  List.filter_map Fun.id (drop_keys @ drop_sv @ drop_structure)

(* --- the shrink loop ---------------------------------------------------- *)

let candidates (c : Case.t) : Case.t list =
  let ops_cands =
    if c.ops = [] then []
    else
      (* drop each op individually, and each suffix (keeping a prefix) *)
      List.mapi
        (fun i _ -> { c with ops = List.filteri (fun j _ -> j <> i) c.ops })
        c.ops
      @ List.mapi
          (fun i _ -> { c with ops = List.filteri (fun j _ -> j <= i) c.ops })
          c.ops
      @ List.concat
          (List.mapi
             (fun i op ->
               match op with
               | Update.Insert { parent; entry } ->
                   List.map
                     (fun e' ->
                       {
                         c with
                         ops =
                           List.mapi
                             (fun j o ->
                               if i = j then Update.Insert { parent; entry = e' }
                               else o)
                             c.ops;
                       })
                     (shrink_entry entry)
               | Update.Delete _ -> [])
             c.ops)
  in
  let instance_cands =
    match c.instance with
    | None -> []
    | Some inst ->
        List.map (fun i -> { c with instance = Some i }) (shrink_instance inst)
  in
  let query_cands =
    match c.query with
    | None -> []
    | Some q -> List.map (fun q' -> { c with query = Some q' }) (shrink_query q)
  in
  let filter_cands =
    match c.filter with
    | None -> []
    | Some f -> List.map (fun f' -> { c with filter = Some f' }) (shrink_filter f)
  in
  let text_cands =
    match c.text with
    | None -> []
    | Some t -> List.map (fun t' -> { c with text = Some t' }) (shrink_string t)
  in
  let schema_cands =
    match c.schema with
    | None -> []
    | Some s -> List.map (fun s' -> { c with schema = Some s' }) (shrink_schema s)
  in
  (* Big cuts first: whole-instance / whole-ops candidates lead, then
     per-component rewrites. *)
  instance_cands @ ops_cands @ text_cands @ query_cands @ filter_cands
  @ schema_cands

let minimize ?(max_tests = 10_000) ~still_fails case =
  let tests_used = ref 0 in
  let try_case c =
    incr tests_used;
    try still_fails c with _ -> false
  in
  let rec loop current =
    if !tests_used >= max_tests then current
    else
      let m = measure current in
      let next =
        List.find_opt
          (fun cand ->
            measure cand < m && !tests_used < max_tests && try_case cand)
          (candidates current)
      in
      match next with Some better -> loop better | None -> current
  in
  loop case
