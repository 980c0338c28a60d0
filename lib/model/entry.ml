type id = int

type t = {
  id : id;
  rdn : string;
  classes : Oclass.Set.t;
  attrs : Value.t list Attr.Map.t; (* sorted, deduplicated; no objectClass *)
}

let sort_dedup vs = List.sort_uniq Value.compare vs

let check_not_object_class a =
  if Attr.equal a Attr.object_class then
    invalid_arg "Entry: the objectClass attribute is derived from the class set"

let make ~id ?rdn ~classes pairs =
  if Oclass.Set.is_empty classes then
    invalid_arg "Entry.make: an entry must belong to at least one object class";
  let rdn =
    match rdn with
    | Some r -> Intern.share Intern.rdn r
    | None -> Printf.sprintf "id=%d" id
  in
  let attrs =
    List.fold_left
      (fun m (a, v) ->
        check_not_object_class a;
        let vs = match Attr.Map.find_opt a m with Some vs -> vs | None -> [] in
        Attr.Map.add a (Value.intern v :: vs) m)
      Attr.Map.empty pairs
  in
  let attrs = Attr.Map.map sort_dedup attrs in
  { id; rdn; classes; attrs }

let id e = e.id
let rdn e = e.rdn
let classes e = e.classes
let has_class e c = Oclass.Set.mem c e.classes
let n_classes e = Oclass.Set.cardinal e.classes

let object_class_values e =
  List.map (fun c -> Value.String (Oclass.to_string c)) (Oclass.Set.elements e.classes)

let values e a =
  if Attr.equal a Attr.object_class then object_class_values e
  else match Attr.Map.find a e.attrs with vs -> vs | exception Not_found -> []

let has_attr e a =
  if Attr.equal a Attr.object_class then true else Attr.Map.mem a e.attrs

let has_pair e a v = List.exists (Value.equal v) (values e a)

let stored_pairs e =
  Attr.Map.fold (fun a vs acc -> List.map (fun v -> (a, v)) vs @ acc) e.attrs []
  |> List.rev

let pairs e =
  List.map (fun v -> (Attr.object_class, v)) (object_class_values e)
  @ stored_pairs e

let attributes e =
  Attr.Map.fold (fun a _ s -> Attr.Set.add a s) e.attrs
    (Attr.Set.singleton Attr.object_class)

let n_pairs e =
  Oclass.Set.cardinal e.classes
  + Attr.Map.fold (fun _ vs n -> n + List.length vs) e.attrs 0

let add_value a v e =
  check_not_object_class a;
  let vs = match Attr.Map.find_opt a e.attrs with Some vs -> vs | None -> [] in
  { e with attrs = Attr.Map.add a (sort_dedup (Value.intern v :: vs)) e.attrs }

let remove_value a v e =
  check_not_object_class a;
  match Attr.Map.find_opt a e.attrs with
  | None -> e
  | Some vs -> (
      match List.filter (fun v' -> not (Value.equal v v')) vs with
      | [] -> { e with attrs = Attr.Map.remove a e.attrs }
      | vs' -> { e with attrs = Attr.Map.add a vs' e.attrs })

let remove_attr a e =
  check_not_object_class a;
  { e with attrs = Attr.Map.remove a e.attrs }

let with_classes classes e =
  if Oclass.Set.is_empty classes then
    invalid_arg "Entry.with_classes: empty class set";
  { e with classes }

let add_class c e = { e with classes = Oclass.Set.add c e.classes }
let with_id id e = { e with id }
let with_rdn rdn e = { e with rdn = Intern.share Intern.rdn rdn }

let equal e1 e2 =
  e1.id = e2.id && String.equal e1.rdn e2.rdn
  && Oclass.Set.equal e1.classes e2.classes
  && Attr.Map.equal (List.equal Value.equal) e1.attrs e2.attrs

let pp ppf e =
  Format.fprintf ppf "@[<v 2>entry #%d (%s)@ classes: %a@ %a@]" e.id e.rdn
    Oclass.pp_set e.classes
    (Format.pp_print_list (fun ppf (a, v) ->
         Format.fprintf ppf "%a: %a" Attr.pp a Value.pp v))
    (stored_pairs e)
