open Bounds_model

let check (schema : Schema.t) inst =
  if Attr.Set.is_empty schema.keys then []
  else begin
    (* (key value → holders) table; the final per-key sort and the
       violation sort make the output independent of traversal order. *)
    let seen : (string * string, Entry.id list) Hashtbl.t = Hashtbl.create 64 in
    Instance.iter
      (fun e ->
        Attr.Set.iter
          (fun attr ->
            List.iter
              (fun v ->
                let k = (Attr.to_string attr, Value.to_string v) in
                let prev =
                  match Hashtbl.find_opt seen k with Some l -> l | None -> []
                in
                Hashtbl.replace seen k (Entry.id e :: prev))
              (Entry.values e attr))
          schema.keys)
      inst;
    Hashtbl.fold
      (fun (a, v) entries acc ->
        match entries with
        | [] | [ _ ] -> acc
        | _ ->
            Violation.Duplicate_key
              {
                attr = Attr.of_string a;
                value = Value.String v;
                entries = List.sort Int.compare entries;
              }
            :: acc)
      seen []
    |> List.sort Violation.compare
  end
