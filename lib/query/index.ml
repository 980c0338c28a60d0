open Bounds_model

(* {1 Chunked copy-on-write preorder versions}

   A version still assigns each entry a dense preorder rank, but the
   five per-rank columns no longer live in flat arrays copied per
   transaction.  They are cut into immutable chunks of at most
   [chunk_cap] slots strung on a spine; versions share chunks
   structurally, and a splice rebuilds only the chunk(s) it touches
   plus the O(#chunks) spine.

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

   The id->rank table is a persistent Patricia map ({!Pmap}) from id to
   [(chunk uid, slot)], shared between versions and updated in
   O(touched slots · log n) — replacing the per-transaction
   [Hashtbl.copy].  A chunk's [uid] names its {e logical} slot layout:
   copy-on-write that preserves every slot (an ancestor size bump, a
   payload replace) keeps the uid, so the id->loc map needs no update;
   only rebuilds that move slots allocate fresh uids.

   Query sweeps (χ axes, filter scans) want flat arrays back: a version
   lazily materializes a flat mirror (rank table included) on first
   sweep, under a mutex: the server's and the replica's reader threads
   share snapshots and may race to build it.
   The write path never forces it. *)

let chunk_cap = 256
let slot_bits = 8 (* chunk_cap <= 2^slot_bits; locs pack (uid, slot) *)
let slot_mask = (1 lsl slot_bits) - 1
let next_uid = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add next_uid 1

type chunk = {
  uid : int;
  len : int;
  c_ids : int array; (* slot -> Entry.id *)
  c_entries : Entry.t array;
  c_parents : int array; (* slot -> parent Entry.id, -1 for roots *)
  c_depths : int array;
  c_sizes : int array; (* slot -> subtree size *)
}

(* {2 The mirror's id->rank table}

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

(* Lazily-materialized flat mirror for rank sweeps; [f_parents] and
   [f_extents] are back in rank coordinates. *)
type flat = {
  f_ids : Entry.id array;
  f_entries : Entry.t array;
  f_parents : int array;
  f_depths : int array;
  f_extents : int array;
  f_ranks : Ranks.t;
}

type t = {
  instance : Instance.t;
  n : int;
  chunks : chunk array; (* the spine *)
  starts : int array; (* spine pos -> rank of the chunk's slot 0 *)
  locs : int Pmap.t; (* Entry.id -> (uid lsl slot_bits) lor slot *)
  pos : (int, int) Hashtbl.t; (* uid -> spine pos, rebuilt per version *)
  mutable flat : flat option;
  flat_lock : Mutex.t;
}

(* Greatest [p] with [starts.(p) <= r]; caller guarantees a non-empty
   spine and [r < n]. *)
let find_pos starts nchunks r =
  let lo = ref 0 and hi = ref (nchunks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= r then lo := mid else hi := mid - 1
  done;
  !lo

let spine_of_chunks chunks =
  let nchunks = Array.length chunks in
  let starts = Array.make (max 1 nchunks) 0 in
  let pos = Hashtbl.create (max 16 nchunks) in
  let r = ref 0 in
  for p = 0 to nchunks - 1 do
    starts.(p) <- !r;
    Hashtbl.replace pos chunks.(p).uid p;
    r := !r + chunks.(p).len
  done;
  (Array.sub starts 0 nchunks, pos)

let locs_of_chunks chunks =
  Array.fold_left
    (fun locs c ->
      let base = c.uid lsl slot_bits in
      let locs = ref locs in
      for i = 0 to c.len - 1 do
        locs := Pmap.add c.c_ids.(i) (base lor i) !locs
      done;
      !locs)
    Pmap.empty chunks

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
  let chunks = chunkify n ids entries parents depths extents in
  let starts, pos = spine_of_chunks chunks in
  (* A freshly-built version keeps its flat mirror: the build already
     paid for it, and bulk-loaded bases are the versions queries sweep
     hardest. *)
  let flat =
    Some
      {
        f_ids = ids;
        f_entries = entries;
        f_parents = parents;
        f_depths = depths;
        f_extents = extents;
        f_ranks = ranks;
      }
  in
  {
    instance;
    n;
    chunks;
    starts;
    locs = locs_of_chunks chunks;
    pos;
    flat;
    flat_lock = Mutex.create ();
  }

let instance ix = ix.instance
let n ix = ix.n

let force_flat t =
  Mutex.lock t.flat_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.flat_lock)
    (fun () ->
      match t.flat with
      | Some f -> f
      | None ->
          let n = t.n in
          let f_ids = Array.make n 0 in
          let f_depths = Array.make n 0 in
          let f_ranks = Ranks.create n in
          let f_entries =
            if n = 0 then [||] else Array.make n t.chunks.(0).c_entries.(0)
          in
          let r = ref 0 in
          Array.iter
            (fun c ->
              for i = 0 to c.len - 1 do
                f_ids.(!r) <- c.c_ids.(i);
                f_entries.(!r) <- c.c_entries.(i);
                f_depths.(!r) <- c.c_depths.(i);
                Ranks.add f_ranks c.c_ids.(i) !r;
                incr r
              done)
            t.chunks;
          let f_parents = Array.make n (-1) in
          let f_extents = Array.make n 0 in
          let r = ref 0 in
          Array.iter
            (fun c ->
              for i = 0 to c.len - 1 do
                let pid = c.c_parents.(i) in
                if pid >= 0 then f_parents.(!r) <- Ranks.find f_ranks pid;
                f_extents.(!r) <- !r + c.c_sizes.(i) - 1;
                incr r
              done)
            t.chunks;
          let f =
            { f_ids; f_entries; f_parents; f_depths; f_extents; f_ranks }
          in
          t.flat <- Some f;
          f)

let materialize t = match t.flat with Some _ -> () | None -> ignore (force_flat t)

(* Reading [t.flat] without the lock is safe: the record is immutable
   once published, and a stale [None] only costs the chunk-tier path. *)

let rank t id =
  match t.flat with
  | Some f ->
      let r = Ranks.find f.f_ranks id in
      if r < 0 then raise Not_found else r
  | None -> (
      match Pmap.find_opt id t.locs with
      | None -> raise Not_found
      | Some loc ->
          t.starts.(Hashtbl.find t.pos (loc lsr slot_bits))
          + (loc land slot_mask))

let rank_opt t id =
  match t.flat with
  | Some f ->
      let r = Ranks.find f.f_ranks id in
      if r < 0 then None else Some r
  | None -> (
      match Pmap.find_opt id t.locs with
      | None -> None
      | Some loc ->
          Some
            (t.starts.(Hashtbl.find t.pos (loc lsr slot_bits))
            + (loc land slot_mask)))

let[@inline] chunk_at t r =
  let p = find_pos t.starts (Array.length t.chunks) r in
  (t.chunks.(p), r - t.starts.(p))

let id_of_rank t r =
  match t.flat with
  | Some f -> f.f_ids.(r)
  | None ->
      let c, i = chunk_at t r in
      c.c_ids.(i)

let entry_of_rank t r =
  match t.flat with
  | Some f -> f.f_entries.(r)
  | None ->
      let c, i = chunk_at t r in
      c.c_entries.(i)

let parent_rank t r =
  match t.flat with
  | Some f -> f.f_parents.(r)
  | None ->
      let c, i = chunk_at t r in
      let pid = c.c_parents.(i) in
      if pid < 0 then -1 else rank t pid

let depth_of_rank t r =
  match t.flat with
  | Some f -> f.f_depths.(r)
  | None ->
      let c, i = chunk_at t r in
      c.c_depths.(i)

let extent_of_rank t r =
  match t.flat with
  | Some f -> f.f_extents.(r)
  | None ->
      let c, i = chunk_at t r in
      r + c.c_sizes.(i) - 1

let ids_of t bs =
  let k = Bitset.count bs in
  if k = 0 then []
  else begin
    let out = Array.make k 0 in
    let j = ref 0 in
    (match t.flat with
    | Some f ->
        Bitset.iter
          (fun r ->
            out.(!j) <- f.f_ids.(r);
            incr j)
          bs
    | None ->
        Bitset.iter
          (fun r ->
            out.(!j) <- id_of_rank t r;
            incr j)
          bs);
    Array.to_list out
  end

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
   point, and recomputes the spine — O(|Δ| + touched chunks + #chunks)
   per transaction instead of O(n). *)

type splice = { sp_at : int; sp_removed : int; sp_inserted : int }

type builder = {
  mutable b_inst : Instance.t;
  mutable b_n : int;
  mutable b_chunks : chunk array; (* dense prefix of length b_nchunks *)
  mutable b_nchunks : int;
  mutable b_starts : int array; (* same capacity as b_chunks *)
  mutable b_locs : int Pmap.t;
  b_pos : (int, int) Hashtbl.t;
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
  {
    b_inst = t.instance;
    b_n = t.n;
    b_chunks = Array.copy t.chunks;
    b_nchunks = Array.length t.chunks;
    b_starts = Array.copy t.starts;
    b_locs = t.locs;
    b_pos = Hashtbl.copy t.pos;
    b_owned = Hashtbl.create 16;
    b_splices = [];
  }

let recompute_spine b =
  if Array.length b.b_starts < Array.length b.b_chunks then
    b.b_starts <- Array.make (Array.length b.b_chunks) 0;
  Hashtbl.clear b.b_pos;
  let r = ref 0 in
  for p = 0 to b.b_nchunks - 1 do
    b.b_starts.(p) <- !r;
    Hashtbl.replace b.b_pos b.b_chunks.(p).uid p;
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
      let p0 = find_pos b.b_starts b.b_nchunks at in
      let p1 =
        if removed = 0 then p0
        else find_pos b.b_starts b.b_nchunks (at + removed - 1)
      in
      (p0, p1)
  in
  (* Unbind the removed slots (interior chunks included). *)
  if removed > 0 then
    for p = p_lo to p_hi do
      let c = b.b_chunks.(p) and s = b.b_starts.(p) in
      let lo = max 0 (at - s) and hi = min (c.len - 1) (at + removed - 1 - s) in
      for i = lo to hi do
        b.b_locs <- Pmap.remove c.c_ids.(i) b.b_locs
      done
    done;
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
  (* Rebind every slot of the rebuilt chunks (kept boundary slots moved
     chunk too) and let later edits in this transaction mutate them. *)
  Array.iter
    (fun c ->
      Hashtbl.replace b.b_owned c.uid c;
      let base = c.uid lsl slot_bits in
      for i = 0 to c.len - 1 do
        b.b_locs <- Pmap.add c.c_ids.(i) (base lor i) b.b_locs
      done)
    repl;
  b.b_n <- b.b_n - removed + w;
  b.b_splices <-
    { sp_at = at; sp_removed = removed; sp_inserted = w } :: b.b_splices

(* Copy-on-write for a slot-preserving edit: uid (and so every loc into
   the chunk) survives; only the physical arrays fork. *)
let cow_chunk b p =
  let c = b.b_chunks.(p) in
  match Hashtbl.find_opt b.b_owned c.uid with
  | Some c' when c' == c -> c
  | _ ->
      let c' =
        {
          uid = c.uid;
          len = c.len;
          c_ids = Array.copy c.c_ids;
          c_entries = Array.copy c.c_entries;
          c_parents = Array.copy c.c_parents;
          c_depths = Array.copy c.c_depths;
          c_sizes = Array.copy c.c_sizes;
        }
      in
      Hashtbl.replace b.b_owned c.uid c';
      b.b_chunks.(p) <- c';
      c'

(* (spine pos, slot, rank) of an id in the builder. *)
let b_find b id =
  match Pmap.find_opt id b.b_locs with
  | None -> None
  | Some loc ->
      let p = Hashtbl.find b.b_pos (loc lsr slot_bits) in
      let slot = loc land slot_mask in
      Some (p, slot, b.b_starts.(p) + slot)

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

let seal b =
  (* Published chunks must never mutate again: forget ownership so a
     reused builder copies on its next write. *)
  Hashtbl.reset b.b_owned;
  let chunks = Array.sub b.b_chunks 0 b.b_nchunks in
  let starts, pos = spine_of_chunks chunks in
  {
    instance = b.b_inst;
    n = b.b_n;
    chunks;
    starts;
    locs = b.b_locs;
    pos;
    flat = None;
    flat_lock = Mutex.create ();
  }

let apply_op_b b = function
  | Update.Insert { parent; entry } -> insert_one b ~parent entry
  | Update.Delete id -> delete_one b id

let graft_b b ~parent ?delta_index delta =
  let dix =
    match delta_index with Some d -> d | None -> create delta
  in
  let w = dix.n in
  if w > 0 then begin
    (match Instance.graft ~parent delta b.b_inst with
    | Ok inst -> b.b_inst <- inst
    | Error e -> invalid_arg ("Index.graft: " ^ Instance.error_to_string e));
    let pid, k, depth_off = parent_point b ~op:"graft" parent in
    let f = force_flat dix in
    (* Parents as ids and extents as sizes make the block translation-
       free except for the depth offset and the delta-roots' parent. *)
    let slab =
      {
        s_ids = f.f_ids;
        s_entries = f.f_entries;
        s_parents =
          Array.map (fun pr -> if pr < 0 then pid else f.f_ids.(pr)) f.f_parents;
        s_depths = Array.map (fun d -> depth_off + d) f.f_depths;
        s_sizes = Array.init w (fun i -> f.f_extents.(i) - i + 1);
      }
    in
    splice_chunks b ~at:k ~removed:0 slab;
    if pid >= 0 then bump_sizes b pid w
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
