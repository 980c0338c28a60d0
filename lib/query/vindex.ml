open Bounds_model

(* Table keys are interned integers (see {!Intern}): the equality table
   is keyed by the id of ["attr\x00normalized-value"] in the [vkey]
   pool, presence/range/trigram tables by the attribute name's id in the
   [attr] pool.  Insertion-side keying uses [Intern.id] (the pair is
   entering the directory anyway); lookup-side keying uses
   [Intern.find_id], so hostile query constants never grow the pools and
   a miss short-circuits to the empty set without touching the map. *)

let norm = String.lowercase_ascii
let eq_key_str a nv = a ^ "\x00" ^ nv
let eq_key a nv = Intern.id Intern.vkey (eq_key_str a nv)
let eq_key_opt a nv = Intern.find_id Intern.vkey (eq_key_str a nv)
let attr_key a = Intern.id Intern.attr a
let attr_key_opt a = Intern.find_id Intern.attr a

(* Per-attribute sorted-value arrays for Ge/Le.  [Filter.order_cmp] is
   numeric iff BOTH sides parse as integers and falls back to a
   case-folded string compare otherwise, so the comparison relation is
   not a single total order over mixed values ("9" < "10" numerically,
   "10" < "2a" and "9" > "2a" as strings).  One sorted array cannot
   answer both regimes; three can:

   - [num]: values that parse as int, sorted numerically — matched
     against a numeric assertion value;
   - [nonnum]: the remaining values, sorted as normalized strings — a
     numeric assertion value compares with these as a string;
   - [all]: every value as a normalized string — a non-numeric assertion
     value compares with {e all} stored values as strings.

   Each element is a (value, id) pair; a multi-valued entry appears
   once per value, which is exactly [Filter.matches]'s exists-semantics
   once the ids land in a bitset. *)
type range_idx = {
  num_keys : int array; (* sorted; num_ids.(i) holds key num_keys.(i) *)
  num_ids : Entry.id array;
  nonnum_keys : string array;
  nonnum_ids : Entry.id array;
  all_keys : string array;
  all_ids : Entry.id array;
}

(* All postings are entry {e ids}, not ranks: an id survives any update
   that keeps the entry, whereas a single insertion shifts every rank
   behind it.  Lookups convert through the index's rank table on the way
   into a bitset — a constant-factor cost on the same O(result) walk —
   and in exchange the version step patches only the postings of
   attributes actually touched by Δ.

   A posting set has two representations.  [Frozen] — one sorted id
   array, compact and cache-friendly to sweep — is what {!create}
   publishes and what the planner's hot path (bitset fills,
   cardinalities) runs on.  [Patched] — a frozen
   base plus a bounded overlay of pending adds and deletes — is what a
   {e dense} posting becomes under incremental maintenance: the
   [present] rows of universal attributes hold |D| ids, and re-copying
   such an array on every transaction is an O(|D|) write wall.  The
   overlay keeps the version step at O(log |D|) per touched key and is
   folded back into a fresh [Frozen] array only once [patch_cap] edits
   accumulate, so reads stay within a constant factor of array speed
   and the rebuild cost is amortized over [patch_cap] transactions. *)
type postings =
  | Frozen of Entry.id array (* sorted; duplicates kept (multi-valued) *)
  | Patched of patched

and patched = {
  p_base : Entry.id array; (* sorted; occurrences of [p_dels] ids are dead *)
  p_dels : unit Pmap.t; (* ids whose base occurrences are all dead *)
  p_adds : Entry.id list; (* pushed since the base was built; newest-first *)
  p_edits : int; (* |p_adds| + cardinal p_dels: rebuild trigger *)
  p_live : int; (* live postings across base and overlay *)
}

type t = {
  ix : Index.t;
  eq : postings Pmap.t;
  present : postings Pmap.t;
  (* Range and trigram structures are built lazily per attribute — the
     legality hot path (Eq/Present only) never pays for them.  The lock
     makes on-demand construction safe when a pool evaluates several
     queries over one shared snapshot concurrently; the maps being
     persistent, a version step just drops the touched attributes from
     its copy of the spine and shares the rest. *)
  lock : Mutex.t;
  mutable ranges : range_idx Pmap.t;
  mutable trigrams : (string, Entry.id array) Hashtbl.t Pmap.t;
}

let p_count = function Frozen a -> Array.length a | Patched p -> p.p_live

let p_iter f = function
  | Frozen a -> Array.iter f a
  | Patched { p_base; p_dels; p_adds; _ } ->
      if Pmap.is_empty p_dels then Array.iter f p_base
      else Array.iter (fun id -> if not (Pmap.mem id p_dels) then f id) p_base;
      List.iter f p_adds

(* Bulk-build accumulation: plain per-key id lists, in any order — each
   list is sorted into one frozen array before publishing, so chunk and
   push order never show. *)
let push_ids tbl k ids =
  Hashtbl.replace tbl k
    (List.rev_append ids (Option.value ~default:[] (Hashtbl.find_opt tbl k)))

let create ?pool ix =
  let n = Index.n ix in
  Index.materialize ix;
  let build ~lo ~hi =
    (* Pre-sized: one eq bucket per entry-value pair is the common case
       (duplicate pairs only shrink it), so seed with the chunk width
       instead of growing through doublings from a constant. *)
    let eq = Hashtbl.create (max 64 (2 * (hi - lo)))
    and present = Hashtbl.create (max 16 (hi - lo)) in
    for r = lo to hi - 1 do
      let e = Index.entry_of_rank ix r in
      let id = Entry.id e in
      List.iter
        (fun (a, v) ->
          push_ids eq (eq_key (Attr.to_string a) (norm (Value.to_string v))) [ id ])
        (Entry.pairs e);
      Attr.Set.iter
        (fun a -> push_ids present (attr_key (Attr.to_string a)) [ id ])
        (Entry.attributes e)
    done;
    (eq, present)
  in
  let eq, present =
    match Bounds_par.Pool.map_chunks ?pool n build with
    | [] -> (Hashtbl.create 16, Hashtbl.create 16)
    | (eq, present) :: rest ->
        List.iter
          (fun (eq', present') ->
            Hashtbl.iter (push_ids eq) eq';
            Hashtbl.iter (push_ids present) present')
          rest;
        (eq, present)
  in
  (* snapshot-build time is freeze time: every posting list becomes one
     sorted id array before the first lookup runs *)
  let to_pmap tbl =
    Hashtbl.fold
      (fun k ids m ->
        let a = Array.of_list ids in
        Array.sort Int.compare a;
        Pmap.add k (Frozen a) m)
      tbl Pmap.empty
  in
  {
    ix;
    eq = to_pmap eq;
    present = to_pmap present;
    lock = Mutex.create ();
    ranges = Pmap.empty;
    trigrams = Pmap.empty;
  }

let index t = t.ix

let of_postings t p =
  (* query path: force array-speed rank lookups before the member walk *)
  Index.materialize t.ix;
  let bs = Bitset.create (Index.n t.ix) in
  p_iter (fun id -> Bitset.set bs (Index.rank t.ix id)) p;
  bs

let find_eq t a v =
  match eq_key_opt (Attr.to_string a) (norm v) with
  | None -> None
  | Some k -> Pmap.find_opt k t.eq

let find_present t a =
  match attr_key_opt (Attr.to_string a) with
  | None -> None
  | Some k -> Pmap.find_opt k t.present

let lookup_eq t a v =
  match find_eq t a v with
  | Some p -> of_postings t p
  | None -> Bitset.create (Index.n t.ix)

let lookup_present t a =
  match find_present t a with
  | Some p -> of_postings t p
  | None -> Bitset.create (Index.n t.ix)

let card_eq t a v = match find_eq t a v with Some p -> p_count p | None -> 0

let card_present t a =
  match find_present t a with Some p -> p_count p | None -> 0

(* {2 Lazy per-attribute structures} *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let iter_present_ids t a f =
  match find_present t a with Some p -> p_iter f p | None -> ()

let entry_of_id t id = Index.entry_of_rank t.ix (Index.rank t.ix id)

let build_range t a =
  let num = ref [] and nonnum = ref [] and all = ref [] in
  iter_present_ids t a (fun id ->
      let e = entry_of_id t id in
      List.iter
        (fun v ->
          let s = Value.to_string v in
          let ns = norm s in
          (match int_of_string_opt (String.trim s) with
          | Some k -> num := (k, id) :: !num
          | None -> nonnum := (ns, id) :: !nonnum);
          all := (ns, id) :: !all)
        (Entry.values e a));
  let by_int (k1, i1) (k2, i2) =
    match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c
  in
  let by_str (s1, i1) (s2, i2) =
    match String.compare s1 s2 with 0 -> Int.compare i1 i2 | c -> c
  in
  let sorted cmp l =
    let arr = Array.of_list l in
    Array.sort cmp arr;
    (Array.map fst arr, Array.map snd arr)
  in
  let num_keys, num_ids = sorted by_int !num in
  let nonnum_keys, nonnum_ids = sorted by_str !nonnum in
  let all_keys, all_ids = sorted by_str !all in
  { num_keys; num_ids; nonnum_keys; nonnum_ids; all_keys; all_ids }

let range_of t a =
  let key = attr_key (Attr.to_string a) in
  locked t (fun () ->
      match Pmap.find_opt key t.ranges with
      | Some ri -> ri
      | None ->
          let ri = build_range t a in
          t.ranges <- Pmap.add key ri t.ranges;
          ri)

(* First index at which [pred] holds; [pred] must be monotone
   (false on a prefix, true on the suffix — guaranteed by sortedness). *)
let lower_bound arr pred =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pred arr.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* The [lo, hi) slices of the sorted arrays matching [Ge]/[Le] against
   assertion value [v] — shared by the bitset fill and the cardinality
   estimate so the two can never disagree. *)
let range_slices ri ~ge v =
  let nv = norm v in
  let str_pred s = if ge then String.compare s nv >= 0 else String.compare s nv > 0 in
  match int_of_string_opt (String.trim v) with
  | Some b ->
      let num_cut = lower_bound ri.num_keys (fun k -> if ge then k >= b else k > b) in
      let str_cut = lower_bound ri.nonnum_keys str_pred in
      if ge then
        [
          (ri.num_ids, num_cut, Array.length ri.num_ids);
          (ri.nonnum_ids, str_cut, Array.length ri.nonnum_ids);
        ]
      else [ (ri.num_ids, 0, num_cut); (ri.nonnum_ids, 0, str_cut) ]
  | None ->
      let cut = lower_bound ri.all_keys str_pred in
      if ge then [ (ri.all_ids, cut, Array.length ri.all_ids) ]
      else [ (ri.all_ids, 0, cut) ]

let lookup_range t ~ge a v =
  let ri = range_of t a in
  Index.materialize t.ix;
  let bs = Bitset.create (Index.n t.ix) in
  List.iter
    (fun (ids, lo, hi) ->
      for i = lo to hi - 1 do
        Bitset.set bs (Index.rank t.ix ids.(i))
      done)
    (range_slices ri ~ge v);
  bs

let card_range t ~ge a v =
  let ri = range_of t a in
  List.fold_left (fun acc (_, lo, hi) -> acc + (hi - lo)) 0 (range_slices ri ~ge v)

let grams s =
  let n = String.length s in
  if n < 3 then [] else List.init (n - 2) (fun i -> String.sub s i 3)

let build_trigrams t a =
  let tbl = Hashtbl.create 256 in
  iter_present_ids t a (fun id ->
      let e = entry_of_id t id in
      List.iter
        (fun v ->
          List.iter
            (fun g ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl g) in
              Hashtbl.replace tbl g (id :: prev))
            (grams (norm (Value.to_string v))))
        (Entry.values e a));
  let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter
    (fun g l -> Hashtbl.replace out g (Array.of_list (List.sort_uniq Int.compare l)))
    tbl;
  out

let trigrams_of t a =
  let key = attr_key (Attr.to_string a) in
  locked t (fun () ->
      match Pmap.find_opt key t.trigrams with
      | Some tbl -> tbl
      | None ->
          let tbl = build_trigrams t a in
          t.trigrams <- Pmap.add key tbl t.trigrams;
          tbl)

let substr_grams (sub : Filter.substring) =
  let frags =
    Option.to_list sub.initial @ sub.any @ Option.to_list sub.final
  in
  List.sort_uniq String.compare (List.concat_map (fun f -> grams (norm f)) frags)

(* If fragment [f] occurs in a value then every 3-gram of [f] occurs in
   it too, so intersecting gram postings yields a superset of the true
   matches — callers re-verify candidates with [Filter.matches].  Using
   only the scarcest grams keeps the intersection cheap and is still a
   superset. *)
let max_grams_used = 4

let substr_postings t a sub =
  match substr_grams sub with
  | [] -> None (* no fragment long enough to prefilter *)
  | gs ->
      let tbl = trigrams_of t a in
      let postings =
        List.map
          (fun g -> Option.value ~default:[||] (Hashtbl.find_opt tbl g))
          gs
      in
      let by_scarcity = List.stable_sort (fun x y -> Int.compare (Array.length x) (Array.length y)) postings in
      Some (List.filteri (fun i _ -> i < max_grams_used) by_scarcity)

let substr_candidates t a sub =
  match substr_postings t a sub with
  | None -> lookup_present t a
  | Some [] -> Bitset.create (Index.n t.ix)
  | Some (first :: rest) ->
      Index.materialize t.ix;
      let bs = Bitset.create (Index.n t.ix) in
      Array.iter (fun id -> Bitset.set bs (Index.rank t.ix id)) first;
      List.iter
        (fun arr ->
          let other = Bitset.create (Index.n t.ix) in
          Array.iter (fun id -> Bitset.set other (Index.rank t.ix id)) arr;
          Bitset.inter_into ~into:bs other)
        rest;
      bs

let card_substr t a sub =
  match substr_postings t a sub with
  | None -> card_present t a
  | Some [] -> 0
  | Some (first :: _) -> Array.length first

(* {2 Incremental maintenance} *)

(* Counts equal posting multiplicities by construction (one array slot
   per posting, one overlay cell per pending add), so a multi-valued
   entry contributing several postings to one key is fully unindexed
   here.

   A [Frozen] posting never thaws to a list: below [patch_min] it is
   re-spliced in place (binary search plus one blit), above it the edit
   goes into a [Patched] overlay.  Either way a dense posting (every
   person carries [uid] and [name], so the [present] rows hold |D| ids)
   costs O(log |D|) per transaction instead of the O(|D|) copy or the
   O(|D| log |D|) thaw-and-resort that made writes scale with directory
   size.  A key Δ creates starts out as a one-slot [Frozen] array. *)

(* Splice threshold: smaller arrays are cheaper to copy than to wrap in
   an overlay, and staying [Frozen] keeps their reads branch-free. *)
let patch_min = 1024

(* Overlay size at which a [Patched] posting folds back into one sorted
   array.  Rebuild is O(|base|), so the amortized per-edit cost is
   |base| / patch_cap ≈ a few thousand words at |D| = 10^6. *)
let patch_cap = 256

(* Rightmost insertion point keeping [a] sorted. *)
let sorted_insert a id =
  let n = Array.length a in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= id then lo := mid + 1 else hi := mid
  done;
  let at = !lo in
  let out = Array.make (n + 1) id in
  Array.blit a 0 out 0 at;
  Array.blit a at out (at + 1) (n - at);
  out

(* Occurrences of [id] in sorted [a] (multi-valued entries post one
   slot per value): [first] is the leftmost candidate position. *)
let occ_range a id =
  let n = Array.length a in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < id then lo := mid + 1 else hi := mid
  done;
  let first = !lo in
  let last = ref first in
  while !last < n && a.(!last) = id do incr last done;
  (first, !last)

(* Fold the overlay back into one sorted array: sweep the base skipping
   dead ids while merging in the (sorted) adds. *)
let rebuild { p_base; p_dels; p_adds; p_live; _ } =
  let add = Array.of_list p_adds in
  Array.sort Int.compare add;
  let na = Array.length add and nb = Array.length p_base in
  let out = Array.make p_live 0 in
  let j = ref 0 and k = ref 0 in
  for i = 0 to nb - 1 do
    let v = p_base.(i) in
    if not (Pmap.mem v p_dels) then begin
      while !k < na && add.(!k) < v do
        out.(!j) <- add.(!k);
        incr j;
        incr k
      done;
      out.(!j) <- v;
      incr j
    end
  done;
  while !k < na do
    out.(!j) <- add.(!k);
    incr j;
    incr k
  done;
  Frozen out

let patched p = if p.p_edits > patch_cap then rebuild p else Patched p

let push m k id =
  Pmap.update k
    (function
      | Some (Frozen a) when Array.length a < patch_min ->
          Some (Frozen (sorted_insert a id))
      | Some (Frozen a) ->
          Some
            (Patched
               {
                 p_base = a;
                 p_dels = Pmap.empty;
                 p_adds = [ id ];
                 p_edits = 1;
                 p_live = Array.length a + 1;
               })
      | Some (Patched p) ->
          Some
            (patched
               {
                 p with
                 p_adds = id :: p.p_adds;
                 p_edits = p.p_edits + 1;
                 p_live = p.p_live + 1;
               })
      | None -> Some (Frozen [| id |]))
    m

let remove_from m k id =
  Pmap.update k
    (function
      | None -> None
      | Some (Frozen a) when Array.length a < patch_min -> (
          match occ_range a id with
          | first, last when last = first -> Some (Frozen a)
          | first, last when last - first = Array.length a -> None
          | first, last ->
              let n = Array.length a in
              let out = Array.make (n - (last - first)) 0 in
              Array.blit a 0 out 0 first;
              Array.blit a last out first (n - last);
              Some (Frozen out))
      | Some (Frozen a) -> (
          match occ_range a id with
          | first, last when last = first -> Some (Frozen a)
          | first, last ->
              Some
                (Patched
                   {
                     p_base = a;
                     p_dels = Pmap.add id () Pmap.empty;
                     p_adds = [];
                     p_edits = 1;
                     p_live = Array.length a - (last - first);
                   }))
      | Some (Patched p) ->
          (* remove every occurrence: filter the overlay adds, and mark
             the id dead in the base unless it already is *)
          let ra = ref 0 in
          let adds =
            List.filter
              (fun i ->
                if i = id then (
                  incr ra;
                  false)
                else true)
              p.p_adds
          in
          let rb =
            if Pmap.mem id p.p_dels then 0
            else
              let first, last = occ_range p.p_base id in
              last - first
          in
          if !ra = 0 && rb = 0 then Some (Patched p)
          else
            let live = p.p_live - !ra - rb in
            if live = 0 then None
            else
              let dels, de =
                if rb > 0 then (Pmap.add id () p.p_dels, 1)
                else (p.p_dels, 0)
              in
              Some
                (patched
                   {
                     p_base = p.p_base;
                     p_dels = dels;
                     p_adds = adds;
                     p_edits = p.p_edits - !ra + de;
                     p_live = live;
                   }))
    m

(* One transaction's worth of posting edits against a base version. *)
module Builder = struct
  type vindex = t

  type t = {
    base : vindex;
    mutable b_eq : postings Pmap.t;
    mutable b_present : postings Pmap.t;
    mutable b_ranges : range_idx Pmap.t;
    mutable b_trigrams : (string, Entry.id array) Hashtbl.t Pmap.t;
    (* Entries inserted earlier in this same transaction are not in the
       base index; keep them at hand so a later delete can unindex
       them. *)
    added : (Entry.id, Entry.t) Hashtbl.t;
  }

  let of_version base =
    (* The lazy structures carry over wholesale; only the attributes Δ
       touches are evicted (the per-attribute dirty mark), to be rebuilt
       on their next use.  Untouched attributes keep their sorted arrays
       and gram postings — valid because postings are ids. *)
    let ranges, trigrams =
      locked base (fun () -> (base.ranges, base.trigrams))
    in
    {
      base;
      b_eq = base.eq;
      b_present = base.present;
      b_ranges = ranges;
      b_trigrams = trigrams;
      added = Hashtbl.create 16;
    }

  let dirty b ak =
    b.b_ranges <- Pmap.remove ak b.b_ranges;
    b.b_trigrams <- Pmap.remove ak b.b_trigrams

  let insert b entry =
    let id = Entry.id entry in
    Hashtbl.replace b.added id entry;
    List.iter
      (fun (a, v) ->
        let k = eq_key (Attr.to_string a) (norm (Value.to_string v)) in
        b.b_eq <- push b.b_eq k id)
      (Entry.pairs entry);
    Attr.Set.iter
      (fun a ->
        let ak = attr_key (Attr.to_string a) in
        dirty b ak;
        b.b_present <- push b.b_present ak id)
      (Entry.attributes entry)

  let delete b id =
    let e =
      match Hashtbl.find_opt b.added id with
      | Some e -> e
      | None -> entry_of_id b.base id
    in
    Hashtbl.remove b.added id;
    List.iter
      (fun (a, v) ->
        match eq_key_opt (Attr.to_string a) (norm (Value.to_string v)) with
        | None -> ()
        | Some k -> b.b_eq <- remove_from b.b_eq k id)
      (Entry.pairs e);
    Attr.Set.iter
      (fun a ->
        match attr_key_opt (Attr.to_string a) with
        | None -> ()
        | Some ak ->
            dirty b ak;
            b.b_present <- remove_from b.b_present ak id)
      (Entry.attributes e)

  let apply_op b = function
    | Update.Insert { entry; _ } -> insert b entry
    | Update.Delete id -> delete b id

  let seal ~index b =
    {
      ix = index;
      eq = b.b_eq;
      present = b.b_present;
      lock = Mutex.create ();
      ranges = b.b_ranges;
      trigrams = b.b_trigrams;
    }
end

let apply ~index ops t =
  let b = Builder.of_version t in
  List.iter (Builder.apply_op b) ops;
  Builder.seal ~index b
