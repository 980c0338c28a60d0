open Bounds_model

(* {1 Chunked copy-on-write preorder versions}

   A version assigns each entry a dense preorder rank, but the five
   per-rank columns do not live in flat arrays copied per transaction.
   They are cut into immutable chunks of at most [chunk_cap] slots
   strung on a spine; versions share chunks structurally, and a splice
   rebuilds only the chunk(s) it touches plus the O(#chunks) spine.

   The preorder-shift problem — an insert at rank [k] renumbers every
   rank after [k] — is solved by storing nothing rank-absolute inside a
   chunk:

   - a slot's rank is [starts.(pos) + slot], with [starts] (the
     per-chunk rank offsets) recomputed on the spine in O(#chunks);
   - parents are stored as entry {e ids} (stable across shifts), not
     parent ranks;
   - subtree extents are stored as subtree {e sizes}:
     [extent r = r + size - 1], and a splice changes sizes only along
     the ancestor path of the splice point.

   Every version is read through its chunks, by accessors that allocate
   nothing and take no lock: rank -> chunk through a per-version coarse
   table, id -> rank through a rank table shared between versions (see
   {!table}).  Sweeps over every rank walk the chunks in order
   ({!iter_entries}, {!iter_depths}). *)

let chunk_cap = 256
let next_uid = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add next_uid 1

type chunk = {
  uid : int; (* identity of the physical chunk: sharing and ownership *)
  len : int;
  c_ids : int array; (* slot -> Entry.id *)
  c_entries : Entry.t array;
  c_parents : int array; (* slot -> parent Entry.id, -1 for roots *)
  c_depths : int array;
  c_sizes : int array; (* slot -> subtree size *)
}

(* {2 The frozen id->rank table}

   Every posting-to-bitset fill looks up one rank per posting, so this
   table is on the hot path of nearly every query.  It is open
   addressing over one int array of (id, rank) slot pairs, at a
   power-of-two capacity of at least 2n: the load factor stays at most
   1/2, and a lookup allocates nothing (the polymorphic
   [Hashtbl.find_opt] it replaced boxed one [Some] per posting).  A
   dense id-indexed array would be faster still, but ids are never
   reused ([Instance.fresh_id] is one past the largest id ever present),
   so it would grow with the id history instead of with n.

   An id's home slot is its low bits, so any window of at most [cap]
   consecutive ids is collision-free wherever it starts (ids below
   [cap] map to themselves), and a fill walking a sorted posting probes
   the table in nearly increasing order.  Such a window fills one long
   run of slots, so an id that collides steps by an odd stride hashed
   from all its bits, not to the next slot: with linear probing, each
   of P7's base entries homed inside the run of its 10^5 consecutive
   person ids walked 70k slots per lookup. *)
module Ranks = struct
  type t = {
    mask : int; (* capacity - 1, capacity a power of two *)
    slots : int array; (* slot s: id at 2s, rank at 2s+1 (-1 = empty) *)
  }

  let create n =
    let cap = ref 2 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { mask = !cap - 1; slots = Array.make (2 * !cap) (-1) }

  (* Odd, so the probe path visits every slot of the power-of-two
     table. *)
  let[@inline] stride mask id = (((id * 0x2545F4914F6CDD1D) lsr 32) land mask) lor 1

  (* The slot holding [id], or the empty slot ending its probe path; a
     top-level function, so a lookup builds no closure.  [step] is 0
     until the home slot misses: a hit at home hashes nothing. *)
  let rec probe slots mask id step s =
    if slots.((2 * s) + 1) < 0 || slots.(2 * s) = id then s
    else
      let step = if step = 0 then stride mask id else step in
      probe slots mask id step ((s + step) land mask)

  let[@inline] slot t id = probe t.slots t.mask id 0 (id land t.mask)

  let add t id r =
    let s = slot t id in
    t.slots.(2 * s) <- id;
    t.slots.((2 * s) + 1) <- r

  (* The rank of [id], or -1. *)
  let find t id = t.slots.((2 * slot t id) + 1)
end

(* {2 Rank tables shared between versions}

   One frozen table maps every id of the version it was built for to
   its rank there.  Later versions share it and record what changed
   since, in the [Frozen]/[Patched] discipline of {!Vindex}'s postings:

   - [seg_at]/[seg_shift]: the splices since the freeze, composed into
     one monotone map from frozen ranks to current ranks.  Segment [i]
     covers frozen ranks [[seg_at.(i), seg_at.(i+1))] and adds
     [seg_shift.(i)] to them, or drops them when the shift is [dead]:
     splices never reorder the entries they keep, so k splices cut the
     frozen ranks into at most 2k+1 such segments;
   - [added]: the ids placed since the freeze, at their current ranks
     (an id deleted and placed again is dead in the frozen table and
     alive here).

   A lookup is one probe of the frozen table, a step or two from the
   segment a per-version coarse table ([seg_of]) names, and a probe of
   [added] only when the id is not alive in the frozen table.  The
   builder folds a fresh table at seal time, on the writer's thread,
   once [fold_splices] splices or [fold_added] placed ids accumulate:
   one O(n) pass per that many versions. *)
type table = {
  frozen : Ranks.t;
  frozen_n : int; (* frozen ranks are [[0, frozen_n)] *)
  seg_at : int array; (* seg_at.(0) = 0 *)
  seg_shift : int array;
  seg_of : int array; (* frozen rank lsr coarse_bits -> its segment *)
  added : Ranks.t;
  n_added : int;
  edits : int; (* splices since the freeze *)
}

let coarse_bits = 8
let dead = min_int
let fold_splices = 64
let fold_added = 256
let no_added = Ranks.create 0

let frozen_table frozen frozen_n =
  {
    frozen;
    frozen_n;
    seg_at = [| 0 |];
    seg_shift = [| 0 |];
    seg_of = [||];
    added = no_added;
    n_added = 0;
    edits = 0;
  }

(* Greatest [i < len] with [a.(i) <= x]; [a.(0) <= x]. *)
let last_le a len x =
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if a.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

(* [seg_of] for a segment map: the segment holding each multiple of
   [2^coarse_bits] below [frozen_n]. *)
let seg_index seg_at frozen_n =
  let len = Array.length seg_at in
  let out = Array.make ((frozen_n + (1 lsl coarse_bits) - 1) lsr coarse_bits) 0 in
  let i = ref 0 in
  for j = 0 to Array.length out - 1 do
    while !i + 1 < len && seg_at.(!i + 1) <= j lsl coarse_bits do
      incr i
    done;
    out.(j) <- !i
  done;
  out

(* Current rank of frozen rank [r0], or -1 when it was removed. *)
let[@inline] translate tb r0 =
  let sa = tb.seg_at in
  let len = Array.length sa in
  let i =
    if len = 1 then 0
    else begin
      let i = ref tb.seg_of.(r0 lsr coarse_bits) in
      while !i + 1 < len && sa.(!i + 1) <= r0 do
        incr i
      done;
      !i
    end
  in
  let d = tb.seg_shift.(i) in
  if d = dead then -1 else r0 + d

(* The rank of [id], or -1.  An id alive in the frozen table is never
   placed again, so [added] is only asked about the others. *)
let[@inline] find_rank tb id =
  let r0 = Ranks.find tb.frozen id in
  let r = if r0 < 0 then -1 else translate tb r0 in
  if r >= 0 || tb.n_added = 0 then r else Ranks.find tb.added id

(* Compose the segment map with one splice in current coordinates:
   ranks below [at] stay, [[at, at + removed)] die, the rest shift by
   [inserted - removed].  Adjacent segments with one shift merge. *)
let compose_splice seg_at seg_shift ~at ~removed ~inserted =
  let len = Array.length seg_at in
  let out_at = Array.make ((len * 3) + 2) 0 and out_shift = Array.make ((len * 3) + 2) 0 in
  let k = ref 0 in
  (* pieces arrive non-empty and in order *)
  let emit a d =
    if !k = 0 || out_shift.(!k - 1) <> d then begin
      out_at.(!k) <- a;
      out_shift.(!k) <- d;
      incr k
    end
  in
  for i = 0 to len - 1 do
    let a = seg_at.(i) and d = seg_shift.(i) in
    if d = dead then emit a dead
    else begin
      (* the splice's cut points, in the frozen ranks of this segment *)
      let hi = if i + 1 < len then seg_at.(i + 1) else max_int in
      let c1 = at - d and c2 = at + removed - d in
      if c1 > a then emit a d;
      if removed > 0 && c2 > a && c1 < hi then emit (max a c1) dead;
      if c2 < hi then emit (max a c2) (d + inserted - removed)
    end
  done;
  (Array.sub out_at 0 !k, Array.sub out_shift 0 !k)

type t = {
  instance : Instance.t;
  n : int;
  chunks : chunk array; (* the spine *)
  starts : int array; (* spine pos -> rank of its slot 0; starts.(nchunks) = n *)
  coarse : int array; (* r lsr coarse_bits -> spine pos of the chunk holding r *)
  table : table;
}

let spine_of_chunks n chunks =
  let nchunks = Array.length chunks in
  let starts = Array.make (nchunks + 1) n in
  let r = ref 0 in
  for p = 0 to nchunks - 1 do
    starts.(p) <- !r;
    r := !r + chunks.(p).len
  done;
  let coarse = Array.make ((n + (1 lsl coarse_bits) - 1) lsr coarse_bits) 0 in
  let p = ref 0 in
  for j = 0 to Array.length coarse - 1 do
    while starts.(!p + 1) <= j lsl coarse_bits do
      incr p
    done;
    coarse.(j) <- !p
  done;
  (starts, coarse)

let version instance n chunks table =
  let starts, coarse = spine_of_chunks n chunks in
  { instance; n; chunks; starts; coarse; table }

(* Cut flat preorder columns ([parents]/[extents] in rank coordinates)
   into chunks. *)
let chunkify n ids entries parents depths extents =
  let nchunks = (n + chunk_cap - 1) / chunk_cap in
  Array.init nchunks (fun ci ->
      let lo = ci * chunk_cap in
      let len = min chunk_cap (n - lo) in
      {
        uid = fresh_uid ();
        len;
        c_ids = Array.sub ids lo len;
        c_entries = Array.sub entries lo len;
        c_parents =
          Array.init len (fun i ->
              let pr = parents.(lo + i) in
              if pr < 0 then -1 else ids.(pr));
        c_depths = Array.sub depths lo len;
        c_sizes = Array.init len (fun i -> extents.(lo + i) - (lo + i) + 1);
      })

let create instance =
  let n = Instance.size instance in
  let ids = Array.make n 0 in
  let parents = Array.make n (-1) in
  let depths = Array.make n 0 in
  let extents = Array.make n 0 in
  let ranks = Ranks.create n in
  (* The preorder numbering (a rank is the DFS position) consumes the
     stored (most-recent-first) child lists directly: pushing a reversed
     list head-first leaves the first-inserted child on top of the stack,
     so pops reproduce exactly the forward preorder of the recursive
     visit — without a [List.rev] allocation per node.

     The stack lives in two pre-sized int arrays (every node is pushed
     exactly once, so [n] slots bound its height); a cons-cell stack of
     boxed triples costs ~7 words of transient heap per node, which at
     10^6 entries is the difference between bulk load fitting its budget
     or not.  Depth is not stacked at all: parents are ranked before
     their children, so it is [depths.(parent) + 1] at pop time. *)
  let next = ref 0 in
  let st_id = Array.make (max 1 n) 0 in
  let st_parent = Array.make (max 1 n) (-1) in
  let sp = ref 0 in
  let push parent_rank rev_ids =
    List.iter
      (fun id ->
        st_id.(!sp) <- id;
        st_parent.(!sp) <- parent_rank;
        incr sp)
      rev_ids
  in
  push (-1) (Instance.rev_roots instance);
  while !sp > 0 do
    decr sp;
    let id = st_id.(!sp) and parent_rank = st_parent.(!sp) in
    let r = !next in
    incr next;
    ids.(r) <- id;
    parents.(r) <- parent_rank;
    depths.(r) <- (if parent_rank < 0 then 0 else depths.(parent_rank) + 1);
    Ranks.add ranks id r;
    push r (Instance.rev_children instance id)
  done;
  assert (!next = n);
  (* Extents by one reverse pass: a rank is at least its own extent, and
     since children carry larger ranks than their parent, visiting ranks
     high-to-low folds each subtree's maximum into its parent before the
     parent itself is read. *)
  for r = 0 to n - 1 do
    extents.(r) <- r
  done;
  for r = n - 1 downto 1 do
    let p = parents.(r) in
    if p >= 0 && extents.(r) > extents.(p) then extents.(p) <- extents.(r)
  done;
  let entries = Array.init n (fun r -> Instance.entry instance ids.(r)) in
  version instance n (chunkify n ids entries parents depths extents) (frozen_table ranks n)

let instance ix = ix.instance
let n ix = ix.n

(* Nothing to build: kept for callers that time where a version's first
   read begins. *)
let materialize (_ : t) = ()

(* Spine position of the chunk holding rank [r]: the coarse table's
   guess, then forward past chunks that end at or before [r]. *)
let[@inline] pos_of_rank t r =
  let p = ref t.coarse.(r lsr coarse_bits) in
  while t.starts.(!p + 1) <= r do
    incr p
  done;
  !p

let rank t id =
  let r = find_rank t.table id in
  if r < 0 then raise Not_found else r

let rank_opt t id =
  let r = find_rank t.table id in
  if r < 0 then None else Some r

let id_of_rank t r =
  let p = pos_of_rank t r in
  t.chunks.(p).c_ids.(r - t.starts.(p))

let entry_of_rank t r =
  let p = pos_of_rank t r in
  t.chunks.(p).c_entries.(r - t.starts.(p))

let parent_rank t r =
  let p = pos_of_rank t r in
  let pid = t.chunks.(p).c_parents.(r - t.starts.(p)) in
  if pid < 0 then -1 else find_rank t.table pid

let depth_of_rank t r =
  let p = pos_of_rank t r in
  t.chunks.(p).c_depths.(r - t.starts.(p))

let extent_of_rank t r =
  let p = pos_of_rank t r in
  r + t.chunks.(p).c_sizes.(r - t.starts.(p)) - 1

let iter_entries t ~lo ~hi f =
  let lo = if lo < 0 then 0 else lo and hi = if hi >= t.n then t.n - 1 else hi in
  if lo <= hi then begin
    let p = ref (pos_of_rank t lo) and r = ref lo in
    while !r <= hi do
      let c = t.chunks.(!p) and s = t.starts.(!p) in
      let last = if s + c.len <= hi then c.len - 1 else hi - s in
      for i = !r - s to last do
        f (s + i) c.c_entries.(i)
      done;
      r := s + c.len;
      incr p
    done
  end

let iter_depths t f =
  let r = ref 0 in
  Array.iter
    (fun c ->
      for i = 0 to c.len - 1 do
        f (!r + i) c.c_depths.(i)
      done;
      r := !r + c.len)
    t.chunks

let iter_depths_rev t f =
  for p = Array.length t.chunks - 1 downto 0 do
    let c = t.chunks.(p) and s = t.starts.(p) in
    for i = c.len - 1 downto 0 do
      f (s + i) c.c_depths.(i)
    done
  done

(* Members from the top rank down, consed: the list comes out in rank
   order with no intermediate array. *)
let ids_of t bs =
  let acc = ref [] and p = ref (Array.length t.chunks - 1) in
  Bitset.iter_rev
    (fun r ->
      while t.starts.(!p) > r do
        decr p
      done;
      acc := t.chunks.(!p).c_ids.(r - t.starts.(!p)) :: !acc)
    bs;
  !acc

let chunk_count t = Array.length t.chunks

let shared_chunks t1 t2 =
  let tbl = Hashtbl.create (max 16 (Array.length t2.chunks)) in
  Array.iter (fun c -> Hashtbl.replace tbl c.uid c) t2.chunks;
  Array.fold_left
    (fun acc c ->
      match Hashtbl.find_opt tbl c.uid with
      | Some c' when c' == c -> acc + 1
      | _ -> acc)
    0 t1.chunks

(* {1 Incremental maintenance}

   In a preorder numbering a subtree is the contiguous rank interval
   [r, extent r], so a subtree insertion under parent [p] lands as one
   block at [k = extent p + 1] (new children are appended after their
   siblings — [Instance.add]/[Instance.graft] prepend to the reversed
   child list) and a deletion removes one block.  On the chunked
   representation the splice rebuilds only the chunks overlapping the
   block's boundaries (interior chunks of a removed range are dropped
   whole), bumps subtree sizes along the ancestor path of the splice
   point, recomputes the spine and composes the splice into the rank
   table's segment map — O(|Δ| + touched chunks + #chunks + #segments)
   per transaction instead of O(n). *)

type splice = { sp_at : int; sp_removed : int; sp_inserted : int }

type builder = {
  mutable b_inst : Instance.t;
  mutable b_n : int;
  mutable b_chunks : chunk array; (* dense prefix of length b_nchunks *)
  mutable b_nchunks : int;
  mutable b_starts : int array; (* same capacity as b_chunks *)
  b_frozen : Ranks.t;
  b_frozen_n : int;
  mutable b_seg_at : int array;
  mutable b_seg_shift : int array;
  b_added : (Entry.id, int) Hashtbl.t; (* ids placed since the freeze -> rank *)
  mutable b_edits : int;
  (* Chunks this builder allocated: not yet visible to any sealed
     version, so slot-preserving edits may mutate them in place. *)
  b_owned : (int, chunk) Hashtbl.t;
  mutable b_splices : splice list; (* newest first *)
}

let dummy_chunk =
  {
    uid = -1;
    len = 0;
    c_ids = [||];
    c_entries = [||];
    c_parents = [||];
    c_depths = [||];
    c_sizes = [||];
  }

let builder_of t =
  let tb = t.table in
  let added = Hashtbl.create (max 16 tb.n_added) in
  if tb.n_added > 0 then
    for s = 0 to tb.added.mask do
      let r = tb.added.slots.((2 * s) + 1) in
      if r >= 0 then Hashtbl.replace added tb.added.slots.(2 * s) r
    done;
  {
    b_inst = t.instance;
    b_n = t.n;
    b_chunks = Array.copy t.chunks;
    b_nchunks = Array.length t.chunks;
    b_starts = Array.sub t.starts 0 (Array.length t.chunks);
    b_frozen = tb.frozen;
    b_frozen_n = tb.frozen_n;
    b_seg_at = tb.seg_at;
    b_seg_shift = tb.seg_shift;
    b_added = added;
    b_edits = tb.edits;
    b_owned = Hashtbl.create 16;
    b_splices = [];
  }

(* Greatest [p] with [starts.(p) <= r]; caller guarantees a non-empty
   spine and [r < n]. *)
let find_pos b r = last_le b.b_starts b.b_nchunks r

let b_rank b id =
  let r0 = Ranks.find b.b_frozen id in
  let d = if r0 < 0 then dead else b.b_seg_shift.(last_le b.b_seg_at (Array.length b.b_seg_at) r0) in
  if d <> dead then r0 + d
  else match Hashtbl.find_opt b.b_added id with Some r -> r | None -> -1

let recompute_spine b =
  if Array.length b.b_starts < Array.length b.b_chunks then
    b.b_starts <- Array.make (Array.length b.b_chunks) 0;
  let r = ref 0 in
  for p = 0 to b.b_nchunks - 1 do
    b.b_starts.(p) <- !r;
    r := !r + b.b_chunks.(p).len
  done

(* Replace spine positions [p_lo..p_hi] (empty range when
   [p_hi = p_lo - 1]) with [repl]. *)
let replace_spine b p_lo p_hi repl =
  let m = Array.length repl in
  let old_span = p_hi - p_lo + 1 in
  let new_nchunks = b.b_nchunks - old_span + m in
  if new_nchunks > Array.length b.b_chunks then begin
    let cap = max new_nchunks ((2 * Array.length b.b_chunks) + 1) in
    let chunks = Array.make cap dummy_chunk in
    Array.blit b.b_chunks 0 chunks 0 p_lo;
    Array.blit repl 0 chunks p_lo m;
    Array.blit b.b_chunks (p_hi + 1) chunks (p_lo + m)
      (b.b_nchunks - p_hi - 1);
    b.b_chunks <- chunks
  end
  else begin
    Array.blit b.b_chunks (p_hi + 1) b.b_chunks (p_lo + m)
      (b.b_nchunks - p_hi - 1);
    Array.blit repl 0 b.b_chunks p_lo m
  end;
  b.b_nchunks <- new_nchunks;
  recompute_spine b

(* Block content for an insertion, parents as entry ids. *)
type slab = {
  s_ids : Entry.id array;
  s_entries : Entry.t array;
  s_parents : int array;
  s_depths : int array;
  s_sizes : int array;
}

let empty_slab =
  {
    s_ids = [||];
    s_entries = [||];
    s_parents = [||];
    s_depths = [||];
    s_sizes = [||];
  }

(* The rank table follows the splice: the segment map composes it,
   placed ids inside the removed window drop out and the rest shift,
   and the slab's ids are placed at their new ranks. *)
let splice_ranks b ~at ~removed slab =
  let w = Array.length slab.s_ids in
  let seg_at, seg_shift =
    compose_splice b.b_seg_at b.b_seg_shift ~at ~removed ~inserted:w
  in
  b.b_seg_at <- seg_at;
  b.b_seg_shift <- seg_shift;
  b.b_edits <- b.b_edits + 1;
  Hashtbl.filter_map_inplace
    (fun _ r ->
      if r < at then Some r
      else if r < at + removed then None
      else Some (r + w - removed))
    b.b_added;
  Array.iteri (fun i id -> Hashtbl.replace b.b_added id (at + i)) slab.s_ids

(* The one structural edit: remove ranks [at, at+removed) and insert
   [slab] in their place.  Slots kept from the boundary chunks and the
   slab are redistributed into fresh evenly-sized chunks (each at most
   [chunk_cap], at least [chunk_cap/2] when more than one), so the
   chunk count never grows faster than inserted-slots / (chunk_cap/2)
   and repeated edits at one site cannot fragment the spine. *)
let splice_chunks b ~at ~removed slab =
  let w = Array.length slab.s_ids in
  let p_lo, p_hi =
    if b.b_nchunks = 0 then (0, -1)
    else if at >= b.b_n then (b.b_nchunks - 1, b.b_nchunks - 1)
    else
      let p0 = find_pos b at in
      let p1 = if removed = 0 then p0 else find_pos b (at + removed - 1) in
      (p0, p1)
  in
  let left_len = if p_hi < p_lo then 0 else min at b.b_n - b.b_starts.(p_lo) in
  let right_len =
    if p_hi < p_lo then 0
    else b.b_starts.(p_hi) + b.b_chunks.(p_hi).len - (at + removed)
  in
  let cl = if p_hi < p_lo then dummy_chunk else b.b_chunks.(p_lo) in
  let cr = if p_hi < p_lo then dummy_chunk else b.b_chunks.(p_hi) in
  let right_off = if p_hi < p_lo then 0 else at + removed - b.b_starts.(p_hi) in
  (* Global slot [g] of the rebuilt region -> source columns. *)
  let src g =
    if g < left_len then (cl.c_ids, cl.c_entries, cl.c_parents, cl.c_depths, cl.c_sizes, g)
    else if g < left_len + w then
      (slab.s_ids, slab.s_entries, slab.s_parents, slab.s_depths, slab.s_sizes, g - left_len)
    else
      ( cr.c_ids,
        cr.c_entries,
        cr.c_parents,
        cr.c_depths,
        cr.c_sizes,
        right_off + (g - left_len - w) )
  in
  let total = left_len + w + right_len in
  let m = if total = 0 then 0 else (total + chunk_cap - 1) / chunk_cap in
  let repl =
    Array.init m (fun ci ->
        let base = ci * total / m and next = (ci + 1) * total / m in
        let len = next - base in
        let ids = Array.make len 0
        and parents = Array.make len (-1)
        and depths = Array.make len 0
        and sizes = Array.make len 0 in
        let entries =
          let _, es, _, _, _, j = src base in
          Array.make len es.(j)
        in
        for i = 0 to len - 1 do
          let is, es, ps, ds, ss, j = src (base + i) in
          ids.(i) <- is.(j);
          entries.(i) <- es.(j);
          parents.(i) <- ps.(j);
          depths.(i) <- ds.(j);
          sizes.(i) <- ss.(j)
        done;
        { uid = fresh_uid (); len; c_ids = ids; c_entries = entries;
          c_parents = parents; c_depths = depths; c_sizes = sizes })
  in
  replace_spine b p_lo p_hi repl;
  (* later edits in this transaction may mutate the rebuilt chunks *)
  Array.iter (fun c -> Hashtbl.replace b.b_owned c.uid c) repl;
  splice_ranks b ~at ~removed slab;
  b.b_n <- b.b_n - removed + w;
  b.b_splices <-
    { sp_at = at; sp_removed = removed; sp_inserted = w } :: b.b_splices

(* Copy-on-write for a slot-preserving edit: only the physical arrays
   fork. *)
let cow_chunk b p =
  let c = b.b_chunks.(p) in
  match Hashtbl.find_opt b.b_owned c.uid with
  | Some c' when c' == c -> c
  | _ ->
      let c' =
        {
          uid = fresh_uid ();
          len = c.len;
          c_ids = Array.copy c.c_ids;
          c_entries = Array.copy c.c_entries;
          c_parents = Array.copy c.c_parents;
          c_depths = Array.copy c.c_depths;
          c_sizes = Array.copy c.c_sizes;
        }
      in
      Hashtbl.replace b.b_owned c'.uid c';
      b.b_chunks.(p) <- c';
      c'

(* (spine pos, slot, rank) of an id in the builder.  The slot must hold
   the id: a rank table out of step with the chunks fails here instead
   of walking a parent chain that never ends. *)
let b_find b id =
  let r = b_rank b id in
  if r < 0 then None
  else
    let p = find_pos b r in
    let slot = r - b.b_starts.(p) in
    if b.b_chunks.(p).c_ids.(slot) <> id then
      invalid_arg (Printf.sprintf "Index: rank table maps %d to rank %d" id r);
    Some (p, slot, r)

let bump_sizes b start_pid w =
  let pid = ref start_pid in
  while !pid >= 0 do
    match b_find b !pid with
    | None ->
        invalid_arg (Printf.sprintf "Index: broken parent chain at %d" !pid)
    | Some (p, slot, _) ->
        let c = cow_chunk b p in
        c.c_sizes.(slot) <- c.c_sizes.(slot) + w;
        pid := c.c_parents.(slot)
  done

let parent_point b ~op = function
  | None -> (-1, b.b_n, 0)
  | Some p -> (
      match b_find b p with
      | None -> invalid_arg (Printf.sprintf "Index.%s: no parent entry %d" op p)
      | Some (cp, slot, r) ->
          let c = b.b_chunks.(cp) in
          (p, r + c.c_sizes.(slot), c.c_depths.(slot) + 1))

let insert_one b ~parent entry =
  (match Instance.add ~parent entry b.b_inst with
  | Ok inst -> b.b_inst <- inst
  | Error e -> invalid_arg ("Index.apply: " ^ Instance.error_to_string e));
  let pid, k, depth = parent_point b ~op:"apply" parent in
  splice_chunks b ~at:k ~removed:0
    {
      s_ids = [| Entry.id entry |];
      s_entries = [| entry |];
      s_parents = [| pid |];
      s_depths = [| depth |];
      s_sizes = [| 1 |];
    };
  if pid >= 0 then bump_sizes b pid 1

let delete_one b id =
  (match Instance.remove_leaf id b.b_inst with
  | Ok inst -> b.b_inst <- inst
  | Error e -> invalid_arg ("Index.apply: " ^ Instance.error_to_string e));
  match b_find b id with
  | None -> invalid_arg (Printf.sprintf "Index.apply: no entry %d" id)
  | Some (p, slot, r) ->
      let pid = b.b_chunks.(p).c_parents.(slot) in
      splice_chunks b ~at:r ~removed:1 empty_slab;
      if pid >= 0 then bump_sizes b pid (-1)

(* A fresh frozen table over the builder's chunks. *)
let fold_table b =
  let ranks = Ranks.create b.b_n in
  for p = 0 to b.b_nchunks - 1 do
    let c = b.b_chunks.(p) and s = b.b_starts.(p) in
    for i = 0 to c.len - 1 do
      Ranks.add ranks c.c_ids.(i) (s + i)
    done
  done;
  frozen_table ranks b.b_n

let seal b =
  (* Published chunks must never mutate again: forget ownership so a
     reused builder copies on its next write. *)
  Hashtbl.reset b.b_owned;
  let n_added = Hashtbl.length b.b_added in
  let table =
    if b.b_edits > fold_splices || n_added > fold_added then fold_table b
    else
      let added = if n_added = 0 then no_added else Ranks.create n_added in
      Hashtbl.iter (Ranks.add added) b.b_added;
      {
        frozen = b.b_frozen;
        frozen_n = b.b_frozen_n;
        seg_at = b.b_seg_at;
        seg_shift = b.b_seg_shift;
        seg_of = seg_index b.b_seg_at b.b_frozen_n;
        added;
        n_added;
        edits = b.b_edits;
      }
  in
  version b.b_inst b.b_n (Array.sub b.b_chunks 0 b.b_nchunks) table

let apply_op_b b = function
  | Update.Insert { parent; entry } -> insert_one b ~parent entry
  | Update.Delete id -> delete_one b id

let graft_b b ~parent ?delta_index delta =
  let dix =
    match delta_index with Some d -> d | None -> create delta
  in
  if dix.n > 0 then begin
    (match Instance.graft ~parent delta b.b_inst with
    | Ok inst -> b.b_inst <- inst
    | Error e -> invalid_arg ("Index.graft: " ^ Instance.error_to_string e));
    let pid, k, depth_off = parent_point b ~op:"graft" parent in
    (* Parents as ids and extents as sizes make the block translation-
       free except for the depth offset and the delta-roots' parent. *)
    let column f = Array.concat (Array.to_list (Array.map f dix.chunks)) in
    let slab =
      {
        s_ids = column (fun c -> c.c_ids);
        s_entries = column (fun c -> c.c_entries);
        s_parents = column (fun c -> Array.map (fun p -> if p < 0 then pid else p) c.c_parents);
        s_depths = column (fun c -> Array.map (fun d -> depth_off + d) c.c_depths);
        s_sizes = column (fun c -> c.c_sizes);
      }
    in
    splice_chunks b ~at:k ~removed:0 slab;
    if pid >= 0 then bump_sizes b pid dix.n
  end

let prune_b b root =
  match b_find b root with
  | None -> invalid_arg (Printf.sprintf "Index.prune: no entry %d" root)
  | Some (p, slot, r) ->
      let c = b.b_chunks.(p) in
      let w = c.c_sizes.(slot) in
      let pid = c.c_parents.(slot) in
      (match Instance.remove_subtree root b.b_inst with
      | Ok inst -> b.b_inst <- inst
      | Error e -> invalid_arg ("Index.prune: " ^ Instance.error_to_string e));
      splice_chunks b ~at:r ~removed:w empty_slab;
      if pid >= 0 then bump_sizes b pid (-w)

let replace_entry_b b e =
  let id = Entry.id e in
  match b_find b id with
  | None -> invalid_arg (Printf.sprintf "Index.replace_entry: no entry %d" id)
  | Some (p, slot, _) ->
      (match Instance.update_entry id (fun _ -> e) b.b_inst with
      | Ok inst -> b.b_inst <- inst
      | Error err ->
          invalid_arg ("Index.replace_entry: " ^ Instance.error_to_string err));
      let c = cow_chunk b p in
      c.c_entries.(slot) <- e

module Builder = struct
  type index = t
  type t = builder

  let of_version = builder_of
  let instance b = b.b_inst
  let n b = b.b_n
  let apply_op = apply_op_b
  let graft b ~parent ?delta_index delta = graft_b b ~parent ?delta_index delta
  let prune b root = prune_b b root
  let replace_entry b e = replace_entry_b b e
  let splices b = List.rev b.b_splices
  let seal : t -> index = seal
end

let apply ops t =
  let b = builder_of t in
  List.iter (apply_op_b b) ops;
  seal b

let graft ~parent ?delta_index delta t =
  let dix = match delta_index with Some d -> d | None -> create delta in
  if dix.n = 0 then t
  else begin
    let b = builder_of t in
    graft_b b ~parent ~delta_index:dix delta;
    seal b
  end

let prune root t =
  let b = builder_of t in
  prune_b b root;
  seal b

let replace_entry e t =
  let b = builder_of t in
  replace_entry_b b e;
  seal b
