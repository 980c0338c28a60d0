open Bounds_model
module Index = Bounds_query.Index
module Smap = Map.Make (String)

type t = {
  schema : Schema.t;
  inst : Instance.t;
  index : Index.t;
      (* live evaluation index of [inst], patched in place (on a
         copy-on-write version) by every accepted update — never rebuilt
         from scratch after admission *)
  extensions : bool;
  counts : int Oclass.Map.t;
  key_values : Entry.id list Smap.t;
      (* "attr\000value" -> sorted holder ids.  Holder identities (not just
         counts) let a rejection list every entry sharing the key, exactly
         as the full O(|D|) checker would. *)
}

let key_of attr v = Attr.to_string attr ^ "\000" ^ Value.to_string v

let entry_key_values (schema : Schema.t) e =
  Attr.Set.fold
    (fun attr acc ->
      List.fold_left (fun acc v -> key_of attr v :: acc) acc (Entry.values e attr))
    schema.keys []

let counts_of_instance inst =
  Instance.fold
    (fun e m ->
      Oclass.Set.fold
        (fun c m ->
          Oclass.Map.update c (fun n -> Some (1 + Option.value ~default:0 n)) m)
        (Entry.classes e) m)
    inst Oclass.Map.empty

let kv_add id kv k =
  Smap.update k
    (fun l -> Some (List.sort Int.compare (id :: Option.value ~default:[] l)))
    kv

let kv_remove id kv k =
  Smap.update k
    (fun l ->
      match List.filter (fun i -> i <> id) (Option.value ~default:[] l) with
      | [] -> None
      | l -> Some l)
    kv

let holders m k = Option.value ~default:[] (Smap.find_opt k m.key_values)

let key_values_of_instance schema inst =
  Instance.fold
    (fun e m ->
      List.fold_left
        (fun m k -> kv_add (Entry.id e) m k)
        m (entry_key_values schema e))
    inst Smap.empty

let create ?(extensions = true) ?index ?vindex ?memo schema inst =
  (* Build the admission-scan index up front if the caller has none: it
     doubles as the live index the monitor maintains from here on. *)
  let index =
    match index with Some ix -> ix | None -> Index.create inst
  in
  match
    Legality.check ~extensions ~index ?vindex ?memo schema inst
  with
  | [] ->
      Ok
        {
          schema;
          inst = Index.instance index;
          index;
          extensions;
          counts = counts_of_instance inst;
          key_values =
            (if extensions then key_values_of_instance schema inst else Smap.empty);
        }
  | violations -> Error violations

let of_index_trusted ?(extensions = true) schema index =
  (* No admission scan: the caller vouches for legality (a batch rebuild
     of state that was legal transaction by transaction).  The counting
     and key tables are recomputed from the instance — O(|D|), the same
     order as building [index] itself. *)
  let inst = Index.instance index in
  {
    schema;
    inst;
    index;
    extensions;
    counts = counts_of_instance inst;
    key_values =
      (if extensions then key_values_of_instance schema inst else Smap.empty);
  }

let instance m = m.inst
let schema m = m.schema
let index m = m.index

let class_count m c =
  Option.value ~default:0 (Oclass.Map.find_opt c m.counts)

let bump delta m counts =
  Instance.fold
    (fun e counts ->
      Oclass.Set.fold
        (fun c counts ->
          Oclass.Map.update c
            (fun n -> Some (delta + Option.value ~default:0 n))
            counts)
        (Entry.classes e) counts)
    m counts

let violation_of_key k entries =
  match String.index_opt k '\000' with
  | None -> None
  | Some i ->
      let attr = Attr.of_string (String.sub k 0 i) in
      let v = String.sub k (i + 1) (String.length k - i - 1) in
      Some (Violation.Duplicate_key { attr; value = Value.String v; entries })

let key_violations m delta =
  (* Duplicates against the existing instance and within Δ itself.  One
     violation per key value, listing {e every} holder (existing and new),
     so a rejection carries the same evidence as the full checker: since
     the monitored instance has no duplicates, the sharers of any
     conflicting key in D ∪ Δ are exactly its existing holders plus its
     Δ holders. *)
  let in_delta : (string, Entry.id list) Hashtbl.t = Hashtbl.create 16 in
  Instance.iter
    (fun e ->
      List.iter
        (fun k ->
          let prev =
            match Hashtbl.find_opt in_delta k with Some l -> l | None -> []
          in
          Hashtbl.replace in_delta k (Entry.id e :: prev))
        (entry_key_values m.schema e))
    delta;
  Hashtbl.fold
    (fun k delta_holders acc ->
      match holders m k @ delta_holders with
      | [] | [ _ ] -> acc
      | sharers -> (
          match violation_of_key k (List.sort Int.compare sharers) with
          | Some v -> v :: acc
          | None -> acc))
    in_delta []
  |> List.sort Violation.compare

let bump_keys delta_sign sub m kv =
  Instance.fold
    (fun e kv ->
      List.fold_left
        (fun kv k ->
          if delta_sign > 0 then kv_add (Entry.id e) kv k
          else kv_remove (Entry.id e) kv k)
        kv (entry_key_values m.schema e))
    sub kv

(* The counting and key tables after a step that added ([sign] 1) or
   removed ([sign] -1) the subtree [sub]. *)
let retable sign sub m =
  {
    m with
    counts = bump sign sub m.counts;
    key_values =
      (if m.extensions then bump_keys sign sub m m.key_values else m.key_values);
  }

(* One subtree step, spliced into [b], the builder every step of the
   transaction shares.  [m] carries the counting and key tables as the
   earlier steps left them, and [b] the instance.  With [check] the
   Figure-5 Δ-checks (and the key check) run first against them and any
   violation rejects the step; without, the step is spliced as is —
   trusted replay.  Either way [b] is patched and the tables are bumped
   identically, so a replayed monitor is indistinguishable from one that
   re-checked. *)
let step ~check b m = function
  | Transaction.Insert_subtree { parent; subtree = delta } -> (
      (* one Δ index per step: the incremental check evaluates its
         Figure-5 Δ-queries on it, and the accepted subtree is then
         spliced into the builder from the very same encoding *)
      let delta_index = Index.create delta in
      let viols =
        if not check then []
        else
          match
            Incremental.check_insert ~extensions:m.extensions ~delta_index m.schema
              ~base:(Index.Builder.instance b) ~parent ~delta
          with
          | Error msg -> failwith msg
          | Ok viols -> if m.extensions then viols @ key_violations m delta else viols
      in
      match viols with
      | _ :: _ -> Error viols
      | [] ->
          Index.Builder.graft b ~parent ~delta_index delta;
          Ok (retable 1 delta m))
  | Transaction.Delete_subtree { root } -> (
      let base = Index.Builder.instance b in
      let viols =
        if not check then []
        else
          match
            Incremental.check_delete ~class_count:(class_count m) m.schema ~base ~root
          with
          | Error msg -> failwith msg
          | Ok viols -> viols
      in
      match viols with
      | _ :: _ -> Error viols
      | [] -> (
          match Instance.subtree base root with
          | Error e -> failwith (Instance.error_to_string e)
          | Ok sub ->
              Index.Builder.prune b root;
              Ok (retable (-1) sub m)))

(* The transaction's one version, with the rank-space edits that made
   it ({!Index.Builder.splices}), for {!Directory} to migrate cached
   bitsets by word-level splicing. *)
let seal b m =
  let splices = Index.Builder.splices b in
  let index = Index.Builder.seal b in
  ({ m with inst = Index.instance index; index }, splices)

let single s m =
  let b = Index.Builder.of_version m.index in
  Result.map (seal b) (step ~check:true b m s)

let insert_subtree ~parent delta m =
  single (Transaction.Insert_subtree { parent; subtree = delta }) m

let delete_subtree root m = single (Transaction.Delete_subtree { root }) m

let modify_entry id f m =
  let old_entry =
    match Instance.find m.inst id with
    | Some e -> e
    | None -> failwith (Printf.sprintf "no such entry: %d" id)
  in
  let new_entry = f old_entry in
  if Entry.id new_entry <> id then
    invalid_arg "Monitor.modify_entry: the update must preserve the entry id";
  if not (Oclass.Set.equal (Entry.classes old_entry) (Entry.classes new_entry)) then
    invalid_arg
      "Monitor.modify_entry: attribute-level modification must preserve the class \
       set (use delete + insert to reclassify)";
  (* with the class set fixed, only per-entry content and keys can change *)
  let viols =
    Content_legality.check_entry m.schema new_entry
    @
    if m.extensions then begin
      let sv = Single_valued.check_entry m.schema new_entry in
      let old_keys = entry_key_values m.schema old_entry in
      let new_keys = entry_key_values m.schema new_entry in
      let added = List.filter (fun k -> not (List.mem k old_keys)) new_keys in
      let dups =
        List.filter_map
          (fun k ->
            match holders m k with
            | [] -> None
            | existing ->
                violation_of_key k (List.sort Int.compare (id :: existing)))
          added
      in
      sv @ dups
    end
    else []
  in
  match viols with
  | _ :: _ -> Error viols
  | [] ->
      let index = Index.replace_entry new_entry m.index in
      let key_values =
        if m.extensions then
          let kv =
            List.fold_left (kv_remove id) m.key_values
              (entry_key_values m.schema old_entry)
          in
          List.fold_left (kv_add id) kv (entry_key_values m.schema new_entry)
        else m.key_values
      in
      Ok { m with inst = Index.instance index; index; key_values }

type rejection =
  | Bad_ops of string
  | Illegal of { step : int; violations : Violation.t list }

let pp_rejection ppf = function
  | Bad_ops msg -> Format.fprintf ppf "invalid transaction: %s" msg
  | Illegal { step; violations } ->
      Format.fprintf ppf "@[<v>illegal at step %d:@ %a@]" step
        (Format.pp_print_list Violation.pp)
        violations

(* The one decomposition loop behind {!apply} and {!replay}: every step
   splices into one builder on [m]'s index, sealed once at the end, so
   a transaction of k steps makes one version.  A rejected step drops
   the builder, and [m] is untouched. *)
let run ~check ops m =
  match Transaction.decompose m.inst ops with
  | Error msg -> Error (Bad_ops msg)
  | Ok steps ->
      let b = Index.Builder.of_version m.index in
      let rec go i m' = function
        | [] -> Ok (seal b m')
        | s :: rest -> (
            match step ~check b m' s with
            | Ok m' -> go (i + 1) m' rest
            | Error violations -> Error (Illegal { step = i; violations }))
      in
      go 1 m steps

let apply ops m = run ~check:true ops m

(* Trusted: a record that no longer splices is damage, reported as
   [Bad_ops] rather than raised. *)
let replay ops m =
  try run ~check:false ops m
  with Failure msg | Invalid_argument msg -> Error (Bad_ops msg)
