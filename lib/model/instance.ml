module Imap = Map.Make (Int)

type node = {
  entry : Entry.t;
  parent : Entry.id option;
  rev_children : Entry.id list; (* most recently added first *)
}

type t = {
  nodes : node Imap.t;
  rev_roots : Entry.id list;
  size : int;
  max_id : int;
}

type error =
  | Duplicate_id of Entry.id
  | No_such_entry of Entry.id
  | Not_a_leaf of Entry.id
  | Id_clash of Entry.id

let error_to_string = function
  | Duplicate_id id -> Printf.sprintf "duplicate entry id %d" id
  | No_such_entry id -> Printf.sprintf "no such entry: %d" id
  | Not_a_leaf id -> Printf.sprintf "entry %d is not a leaf" id
  | Id_clash id -> Printf.sprintf "grafted subtree reuses existing id %d" id

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let empty = { nodes = Imap.empty; rev_roots = []; size = 0; max_id = -1 }
let size t = t.size
let is_empty t = t.size = 0
let mem t id = Imap.mem id t.nodes

let node t id =
  match Imap.find_opt id t.nodes with
  | Some n -> Ok n
  | None -> Error (No_such_entry id)

let entry t id =
  match Imap.find_opt id t.nodes with
  | Some n -> n.entry
  | None -> raise Not_found

let find t id = Option.map (fun n -> n.entry) (Imap.find_opt id t.nodes)

let parent t id =
  match Imap.find_opt id t.nodes with Some n -> n.parent | None -> None

let children t id =
  match Imap.find_opt id t.nodes with
  | Some n -> List.rev n.rev_children
  | None -> []

let rev_children t id =
  match Imap.find_opt id t.nodes with Some n -> n.rev_children | None -> []

let roots t = List.rev t.rev_roots
let rev_roots t = t.rev_roots
let is_leaf t id = children t id = []
let is_root t id = parent t id = None && mem t id

let ( let* ) = Result.bind

let add ~parent:p e t =
  let id = Entry.id e in
  if Imap.mem id t.nodes then Error (Duplicate_id id)
  else
    match p with
    | None ->
        Ok
          {
            nodes = Imap.add id { entry = e; parent = None; rev_children = [] } t.nodes;
            rev_roots = id :: t.rev_roots;
            size = t.size + 1;
            max_id = max t.max_id id;
          }
    | Some pid ->
        let* pn = node t pid in
        let nodes =
          t.nodes
          |> Imap.add pid { pn with rev_children = id :: pn.rev_children }
          |> Imap.add id { entry = e; parent = Some pid; rev_children = [] }
        in
        Ok { t with nodes; size = t.size + 1; max_id = max t.max_id id }

let add_root e t = add ~parent:None e t
let add_child ~parent e t = add ~parent:(Some parent) e t

let add_root_exn e t =
  match add_root e t with
  | Ok t -> t
  | Error err -> invalid_arg (error_to_string err)

let add_child_exn ~parent e t =
  match add_child ~parent e t with
  | Ok t -> t
  | Error err -> invalid_arg (error_to_string err)

let detach_from_parent id pid t =
  match Imap.find_opt pid t.nodes with
  | None -> t
  | Some pn ->
      let rev_children = List.filter (fun c -> c <> id) pn.rev_children in
      { t with nodes = Imap.add pid { pn with rev_children } t.nodes }

let remove_leaf id t =
  let* n = node t id in
  if n.rev_children <> [] then Error (Not_a_leaf id)
  else
    let t =
      match n.parent with
      | Some pid -> detach_from_parent id pid t
      | None -> { t with rev_roots = List.filter (fun r -> r <> id) t.rev_roots }
    in
    Ok { t with nodes = Imap.remove id t.nodes; size = t.size - 1 }

let rec preorder_ids t id acc =
  (* accumulates in reverse preorder *)
  List.fold_left (fun acc c -> preorder_ids t c acc) (id :: acc) (children t id)

let subtree_ids t id = List.rev (preorder_ids t id [])

let remove_subtree id t =
  let* _ = node t id in
  let victims = subtree_ids t id in
  let t =
    match parent t id with
    | Some pid -> detach_from_parent id pid t
    | None -> { t with rev_roots = List.filter (fun r -> r <> id) t.rev_roots }
  in
  let nodes = List.fold_left (fun m v -> Imap.remove v m) t.nodes victims in
  Ok { t with nodes; size = t.size - List.length victims }

let subtree t id =
  let* root = node t id in
  let rec copy src_id dst_parent acc =
    match add ~parent:dst_parent (entry t src_id) acc with
    | Error _ -> assert false (* ids unique in source *)
    | Ok acc ->
        List.fold_left (fun acc c -> copy c (Some src_id) acc) acc (children t src_id)
  in
  ignore root;
  Ok (copy id None empty)

let graft ~parent:pid sub t =
  let clash =
    Imap.fold
      (fun id _ acc -> match acc with Some _ -> acc | None -> if mem t id then Some id else None)
      sub.nodes None
  in
  match clash with
  | Some id -> Error (Id_clash id)
  | None -> (
      let* () = match pid with
        | None -> Ok ()
        | Some p -> let* _ = node t p in Ok ()
      in
      let rec copy src_id dst_parent acc =
        match add ~parent:dst_parent (entry sub src_id) acc with
        | Error e -> Error e
        | Ok acc ->
            List.fold_left
              (fun acc c ->
                match acc with Error _ -> acc | Ok acc -> copy c (Some src_id) acc)
              (Ok acc) (children sub src_id)
      in
      List.fold_left
        (fun acc r -> match acc with Error _ -> acc | Ok acc -> copy r pid acc)
        (Ok t) (roots sub))

let update_entry id f t =
  let* n = node t id in
  let e' = f n.entry in
  if Entry.id e' <> id then
    invalid_arg "Instance.update_entry: the update must preserve the entry id";
  Ok { t with nodes = Imap.add id { n with entry = e' } t.nodes }

let fold f t init = Imap.fold (fun _ n acc -> f n.entry acc) t.nodes init
let iter f t = Imap.iter (fun _ n -> f n.entry) t.nodes

let iter_preorder f t =
  let rec go depth id =
    f ~depth (entry t id);
    List.iter (go (depth + 1)) (children t id)
  in
  List.iter (go 0) (roots t)

let ids t = Imap.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.rev
let entries t = Imap.fold (fun _ n acc -> n.entry :: acc) t.nodes [] |> List.rev

let descendants t id =
  List.concat_map (fun c -> subtree_ids t c) (children t id)

let ancestors t id =
  let rec go id acc =
    match parent t id with Some p -> go p (p :: acc) | None -> List.rev acc
  in
  go id []

let is_strict_ancestor t ~anc ~desc =
  let rec go id =
    match parent t id with
    | Some p -> p = anc || go p
    | None -> false
  in
  go desc

let depth t id = List.length (ancestors t id)
let max_id t = t.max_id
let fresh_id t = t.max_id + 1

(* --- DN rendering --------------------------------------------------------- *)

(* Entry ids are dense small ints: they hash to themselves. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* The DN of node [n] given its parent's DN: the rdn, a comma and the
   parent's DN in one allocation; a root's DN is its rdn itself. *)
let node_dn n parent_dn =
  match parent_dn with
  | None -> Entry.rdn n.entry
  | Some p ->
      let rdn = Entry.rdn n.entry in
      let lr = String.length rdn and lp = String.length p in
      let b = Bytes.create (lr + 1 + lp) in
      Bytes.blit_string rdn 0 b 0 lr;
      Bytes.set b lr ',';
      Bytes.blit_string p 0 b (lr + 1) lp;
      Bytes.unsafe_to_string b

(* The DN whose rdns below [n] take its first [pos] bytes: the walk up
   sums the lengths, the root creates the one [Bytes] the sum fills, and
   each node writes its rdn (and the comma after it) as the walk
   returns, from the root end back to the leaf. *)
let rec fill_dn nodes n pos =
  let rdn = Entry.rdn n.entry in
  let stop = pos + String.length rdn in
  let b =
    match n.parent with
    | None -> Bytes.create stop
    | Some p ->
        let b = fill_dn nodes (Imap.find p nodes) (stop + 1) in
        Bytes.set b stop ',';
        b
  in
  Bytes.blit_string rdn 0 b pos (String.length rdn);
  b

(* One allocation; a root's DN is its rdn itself. *)
let dn t id =
  let n = Imap.find id t.nodes in
  match n.parent with
  | None -> Entry.rdn n.entry
  | Some _ -> Bytes.unsafe_to_string (fill_dn t.nodes n 0)

(* A memo entry is where a DN already sits in the listing's buffer: its
   offset and length packed in one int, so a hit allocates nothing. *)
let span off len = (off lsl 32) lor len

(* The next piece would take the buffer past the call's limit. *)
exception Full

let room (o : Outbuf.t) limit n = if o.len + n > limit then raise Full

(* Append node [n]'s DN: its rdn, then — unless it is a root — a comma
   and its parent's DN, copied from earlier in [o] when [memo] has it,
   else rendered here the same way.  A node with children records where
   its DN sits as the walk returns, so each ancestor is rendered once
   per call, as the suffix of the first DN below it. *)
let rec add_node_dn nodes memo limit (o : Outbuf.t) id n =
  let start = o.len in
  let rdn = Entry.rdn n.entry in
  room o limit (String.length rdn + 1);
  Outbuf.add_string o rdn;
  (match n.parent with
  | None -> ()
  | Some p -> (
      Outbuf.add_char o ',';
      match Itbl.find memo p with
      | s ->
          room o limit (s land 0xFFFF_FFFF);
          Outbuf.add_copy o (s lsr 32) (s land 0xFFFF_FFFF)
      | exception Not_found -> add_node_dn nodes memo limit o p (Imap.find p nodes)));
  if n.rev_children <> [] then Itbl.add memo id (span start (o.len - start))

let add_dn nodes memo limit (o : Outbuf.t) id =
  let n = Imap.find id nodes in
  room o limit 1;
  Outbuf.add_char o '\n';
  (* only an entry with children can be in the memo *)
  if n.rev_children <> [] && Itbl.mem memo id then begin
    let s = Itbl.find memo id in
    room o limit (s land 0xFFFF_FFFF);
    Outbuf.add_copy o (s lsr 32) (s land 0xFFFF_FFFF)
  end
  else add_node_dn nodes memo limit o id n

(* The first DN of a call is rendered whatever its length, so a caller
   that sends what fits and calls again with the rest always advances. *)
let add_dns ?(limit = max_int) t o ids =
  let memo = Itbl.create 16 in
  let rec go limit' = function
    | [] -> []
    | id :: rest as ids -> (
        let mark = o.Outbuf.len in
        match add_dn t.nodes memo limit' o id with
        | () -> go limit rest
        | exception Full ->
            o.len <- mark;
            ids)
  in
  go max_int ids

let iter_preorder_dn f t =
  let rec go parent_dn id =
    let n = Imap.find id t.nodes in
    let dn = node_dn n parent_dn in
    f ~dn n.entry;
    List.iter (go (Some dn)) (List.rev n.rev_children)
  in
  List.iter (go None) (roots t)

let norm_rdn s = String.lowercase_ascii (String.trim s)

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec same_folded s off key k =
  k = String.length key
  || Char.lowercase_ascii s.[off + k] = key.[k]
     && same_folded s off key (k + 1)

(* [rdn_matches key rdn] is [norm_rdn rdn = key], compared in place:
   resolving a DN tests every sibling at every level, and normalizing
   each one allocated two strings per sibling. *)
let rdn_matches key rdn =
  let lo = ref 0 and hi = ref (String.length rdn) in
  while !lo < !hi && is_space rdn.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_space rdn.[!hi - 1] do
    decr hi
  done;
  !hi - !lo = String.length key && same_folded rdn !lo key 0

(* Among siblings sharing an rdn the first-inserted one wins.  The
   stored child lists are most-recent-first, so that is the match
   nearest the tail: recursing to the tail first tests siblings in
   insertion order and stops at the first match, with no reversed copy
   of the list. *)
let rec first_match t key = function
  | [] -> None
  | id :: rest -> (
      match first_match t key rest with
      | Some _ as found -> found
      | None ->
          if rdn_matches key (Entry.rdn (Imap.find id t.nodes).entry) then Some id
          else None)

let resolve_dn t dn_str =
  let parts = String.split_on_char ',' dn_str |> List.map norm_rdn in
  (* leaf-first; walk from the root end *)
  let rec descend rev_candidates = function
    | [] -> None
    | rdn :: rest -> (
        match (first_match t rdn rev_candidates, rest) with
        | Some id, _ :: _ -> descend (rev_children t id) rest
        | found, _ -> found)
  in
  descend t.rev_roots (List.rev parts)

let equal t1 t2 =
  t1.size = t2.size
  && Imap.for_all
       (fun id n1 ->
         match Imap.find_opt id t2.nodes with
         | None -> false
         | Some n2 -> Entry.equal n1.entry n2.entry && n1.parent = n2.parent)
       t1.nodes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter_preorder
    (fun ~depth e ->
      Format.fprintf ppf "%s%s %a@ " (String.make (2 * depth) ' ') (Entry.rdn e)
        Oclass.pp_set (Entry.classes e))
    t;
  Format.fprintf ppf "@]"
