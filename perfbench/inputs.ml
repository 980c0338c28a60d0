(* The benchmark's seeded inputs: store shapes, the read request stream
   with its expected answers, and the write transaction stream.

   Everything here is a pure function of the seed (and, for wire writes,
   of the run's uid tag), so the end-to-end run and the traced run
   replay exactly the same requests and transactions. *)

open Bounds_model
module WP = Bounds_workload.White_pages

type workload = Read | Mixed

let workloads = [ ("read", Read); ("mixed", Mixed) ]
let workload_of_string s = List.assoc_opt s workloads

let workload_name w =
  fst (List.find (fun (_, w') -> w' = w) workloads)

(* The store both workloads serve: 10^4 entries whose restart
   exercises every recovery stage (checkpoint, one delta segment, a WAL
   tail).  Not 10^5: at that size the read path's working set made its
   latencies follow the host's memory contention (NOTES.md). *)
type shape = {
  units : int;
  persons : int;  (** per unit *)
  delta_records : int;  (** folded into one delta segment *)
  wal_records : int;  (** left in the WAL *)
}

let shape = { units = 500; persons = 20; delta_records = 1024; wal_records = 2048 }

let instance ~seed =
  WP.generate ~seed ~units:shape.units ~persons_per_unit:shape.persons ()

(* --- write transactions ------------------------------------------------- *)

(* Fresh persons are plain staff members, never online, researchers or
   faculty: the query templates below rely on it to know which answers
   a concurrent insert can change. *)
let fresh_entry ~id ~uid =
  Entry.make ~id ~rdn:("uid=" ^ uid)
    ~classes:(Oclass.set_of_list [ "person"; "staffmember"; "top" ])
    [
      (Attr.of_string "uid", Value.String uid);
      (Attr.of_string "name", Value.String ("bench " ^ uid));
    ]

let add_record ~uid ~parent_dn =
  String.concat "\n"
    [
      "dn: uid=" ^ uid ^ "," ^ parent_dn;
      "changetype: add";
      "objectClass: person";
      "objectClass: staffMember";
      "objectClass: top";
      "uid: " ^ uid;
      "name: bench " ^ uid;
    ]

let delete_record ~uid ~parent_dn =
  "dn: uid=" ^ uid ^ "," ^ parent_dn ^ "\nchangetype: delete"

(* The [k]-th transaction the writer sends: an insert of a fresh person
   at even [k], its delete at odd [k], so the directory size stays put.
   Uids carry the run's [tag]; the tag has a fixed length so record
   sizes do not depend on it. *)
type write = { uid : string; parent_dn : string; insert : bool }

let write_txn ~tag ~parents k =
  let i = k / 2 in
  let parent_dn = parents.(i mod Array.length parents) in
  { uid = Printf.sprintf "%s-%d" tag i; parent_dn; insert = k mod 2 = 0 }

let write_text w =
  if w.insert then add_record ~uid:w.uid ~parent_dn:w.parent_dn
  else delete_record ~uid:w.uid ~parent_dn:w.parent_dn

let tag_length = 6

let fresh_tag () =
  let st = Random.State.make_self_init () in
  String.init tag_length (fun _ -> "0123456789abcdef".[Random.State.int st 16])

(* --- reads -------------------------------------------------------------- *)

type cls = Lookup | Search | Query

let classes = [ (Lookup, "lookup"); (Search, "search"); (Query, "query") ]
let cls_name c = List.assoc c classes

type expect = Dn of string | Count of int

type read = {
  cls : cls;
  base : string option;  (** search base; [None] for queries *)
  text : string;  (** filter (lookup, search) or query *)
  scope_dn : string;  (** the orgUnit (or root) the request is about *)
  expect : expect;
  fresh_counts : bool;
      (** a fresh person inserted under [scope_dn] joins the answer *)
}

(* Per-subtree tallies of an orgUnit, the ground truth for the search
   and query answers (computed structurally, not by the query engine
   under test). *)
type tally = { persons : int; online : int; plain_researchers : int; units : int }

let zero = { persons = 0; online = 0; plain_researchers = 0; units = 0 }

let add a b =
  {
    persons = a.persons + b.persons;
    online = a.online + b.online;
    plain_researchers = a.plain_researchers + b.plain_researchers;
    units = a.units + b.units;
  }

(* Query templates over one orgUnit [K] (given by its ou value): the
   query text, what it counts, and whether a fresh person under [K]
   counts too. *)
let templates =
  [|
    ( Printf.sprintf "(chi a (objectClass=person) (ou=%s))",
      (fun t -> t.persons),
      true );
    ( Printf.sprintf
        "(inter (chi a (objectClass=person) (ou=%s)) (objectClass=online))",
      (fun t -> t.online),
      false );
    ( Printf.sprintf
        "(minus (chi a (objectClass=researcher) (ou=%s)) \
         (objectClass=facultyMember))",
      (fun t -> t.plain_researchers),
      false );
    (* every orgUnit under K (K included) has persons as children *)
    ( Printf.sprintf
        "(chi c (objectClass=orgUnit) (chi a (objectClass=person) (ou=%s)))",
      (fun t -> t.units),
      false );
  |]

let oc = Oclass.of_string

let rdn_value e =
  let r = Entry.rdn e in
  String.sub r (String.index r '=' + 1) (String.length r - String.index r '=' - 1)

(* Tallies of every orgUnit's subtree, one post-order pass. *)
let unit_tallies inst =
  let tbl = Hashtbl.create 1024 in
  let rec walk id =
    let e = Instance.entry inst id in
    let self =
      if Entry.has_class e (oc "person") then
        {
          persons = 1;
          online = (if Entry.has_class e (oc "online") then 1 else 0);
          plain_researchers =
            (if
               Entry.has_class e (oc "researcher")
               && not (Entry.has_class e (oc "facultymember"))
             then 1
             else 0);
          units = 0;
        }
      else if Entry.has_class e (oc "orgunit") then { zero with units = 1 }
      else zero
    in
    let t =
      List.fold_left (fun acc c -> add acc (walk c)) self (Instance.children inst id)
    in
    if Entry.has_class e (oc "orgunit") then Hashtbl.replace tbl id t;
    t
  in
  List.iter (fun r -> ignore (walk r)) (Instance.roots inst);
  tbl

let ids_with inst c =
  Instance.fold (fun e acc -> if Entry.has_class e c then Entry.id e :: acc else acc) inst []
  |> List.sort compare |> Array.of_list

(* Units a write may go under, drawn once per seed. *)
let write_parents ~seed inst ~n =
  let units = ids_with inst (oc "orgunit") in
  let rng = Random.State.make [| seed; 0x77 |] in
  Array.init n (fun _ ->
      Instance.dn inst units.(Random.State.int rng (Array.length units)))

(* The closed-loop reader's stream: about 60% lookups of a random
   existing uid (subtree search from the root), 20% person searches
   under a random orgUnit, 20% χ queries from [templates] over a random
   orgUnit. *)
let read_stream ~seed inst ~n =
  let units = ids_with inst (oc "orgunit") in
  let persons = ids_with inst (oc "person") in
  let tallies = unit_tallies inst in
  let root_dn = Instance.dn inst (List.hd (Instance.roots inst)) in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  Array.init n (fun _ ->
      match Random.State.int rng 10 with
      | r when r < 6 ->
          let p = pick persons in
          {
            cls = Lookup;
            base = Some root_dn;
            text = Printf.sprintf "(uid=%s)" (rdn_value (Instance.entry inst p));
            scope_dn = root_dn;
            expect = Dn (Instance.dn inst p);
            fresh_counts = false;
          }
      | r when r < 8 ->
          let u = pick units in
          let dn = Instance.dn inst u in
          {
            cls = Search;
            base = Some dn;
            text = "(objectClass=person)";
            scope_dn = dn;
            expect = Count (Hashtbl.find tallies u).persons;
            fresh_counts = true;
          }
      | _ ->
          let u = pick units in
          let i = Random.State.int rng (Array.length templates) in
          let render, count, fresh = templates.(i) in
          {
            cls = Query;
            base = None;
            text = render (rdn_value (Instance.entry inst u));
            scope_dn = Instance.dn inst u;
            expect = Count (count (Hashtbl.find tallies u));
            fresh_counts = fresh;
          })

(* Does a fresh person under [parent_dn] join the answer of [r]? *)
let fresh_joins r ~parent_dn =
  r.fresh_counts
  && (parent_dn = r.scope_dn
     || String.ends_with ~suffix:("," ^ r.scope_dn) parent_dn)

(* [check r reply] — [extra] is how many fresh persons may be visible
   to [r]; the reply body is "<count>\n<dn>\n...". *)
let check ?(extra = 0) r body =
  match String.split_on_char '\n' body with
  | [] -> Error "empty reply"
  | count :: dns -> (
      match (int_of_string_opt count, r.expect) with
      | None, _ -> Error ("bad count line " ^ count)
      | Some 1, Dn dn when dns = [ dn ] -> Ok ()
      | Some _, Dn dn -> Error (Printf.sprintf "expected exactly %s" dn)
      | Some n, Count c when n >= c && n <= c + extra -> Ok ()
      | Some n, Count c ->
          Error
            (Printf.sprintf "got %d entries, expected %d%s" n c
               (if extra > 0 then Printf.sprintf " (+%d)" extra else "")))

(* --- the plan file -------------------------------------------------------- *)

(* Set-up writes the stream it derived from the generated instance, so
   the load generator and the traced run need not regenerate the
   instance.  One tab-separated record per line; no field holds a tab or
   a newline. *)
type plan = { entries : int; lsn : int; parents : string array; reads : read array }

let write_plan path p =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "E\t%d\t%d\n" p.entries p.lsn;
      Array.iter (fun d -> Printf.fprintf oc "P\t%s\n" d) p.parents;
      Array.iter
        (fun r ->
          Printf.fprintf oc "R\t%s\t%s\t%s\t%s\t%s\t%b\n" (cls_name r.cls)
            (Option.value r.base ~default:"")
            r.text r.scope_dn
            (match r.expect with Dn d -> "dn:" ^ d | Count n -> "n:" ^ string_of_int n)
            r.fresh_counts)
        p.reads)

let read_plan path =
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  let entries = ref 0 and lsn = ref 0 and parents = ref [] and reads = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ "E"; e; l ] ->
          entries := int_of_string e;
          lsn := int_of_string l
      | [ "P"; d ] -> parents := d :: !parents
      | [ "R"; c; base; text; scope_dn; expect; fresh ] ->
          let cls = fst (List.find (fun (_, n) -> n = c) classes) in
          let expect =
            match String.split_on_char ':' expect with
            | "dn" :: _ -> Dn (String.sub expect 3 (String.length expect - 3))
            | [ "n"; n ] -> Count (int_of_string n)
            | _ -> failwith ("plan: bad expectation " ^ expect)
          in
          reads :=
            {
              cls;
              base = (if base = "" then None else Some base);
              text;
              scope_dn;
              expect;
              fresh_counts = bool_of_string fresh;
            }
            :: !reads
      | [ "" ] -> ()
      | _ -> failwith ("plan: bad line " ^ line))
    lines;
  {
    entries = !entries;
    lsn = !lsn;
    parents = Array.of_list (List.rev !parents);
    reads = Array.of_list (List.rev !reads);
  }
