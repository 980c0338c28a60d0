open Bounds_model

let check_entry (schema : Schema.t) e =
  Attr.Set.fold
    (fun attr acc ->
      let count = List.length (Entry.values e attr) in
      if count > 1 then
        Violation.Multiple_values { entry = Entry.id e; attr; count } :: acc
      else acc)
    schema.single_valued []
  |> List.rev

let check schema inst = List.concat_map (check_entry schema) (Instance.entries inst)
