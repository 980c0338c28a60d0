open Bounds_model
module Index = Bounds_query.Index
module Vindex = Bounds_query.Vindex
module Plan = Bounds_query.Plan
module Search = Bounds_query.Search
module Pool = Bounds_par.Pool

(* --- read-only snapshots ---------------------------------------------- *)

module Snapshot = struct
  type t = { index : Index.t; vindex : Vindex.t; memo : Plan.memo }

  let of_index ?pool index =
    let vindex = Vindex.create ?pool index in
    { index; vindex; memo = Plan.memo_create vindex }

  let of_instance ?pool inst = of_index ?pool (Index.create ?pool inst)
  let index s = s.index
  let vindex s = s.vindex
  let memo s = s.memo
  let instance s = Index.instance s.index
  let query ?pool s q = Plan.memo_eval ?pool s.memo q
  let query_ids ?pool s q = Index.ids_of s.index (query ?pool s q)

  (* Read-only twins: never write the snapshot's memo, so any number of
     concurrent readers (threads or domains) may evaluate over one
     published snapshot — the lock-free read path of the network
     server's snapshot-isolation discipline. *)
  let query_ro ?pool s q = Plan.memo_eval_ro ?pool s.memo q
  let query_ids_ro ?pool s q = Index.ids_of s.index (query_ro ?pool s q)

  let explain ?pool s q =
    let plan = Plan.plan s.vindex q in
    let result = Plan.exec ?pool plan in
    (plan, result)

  let search s ~base scope filter =
    Search.search ~vindex:s.vindex s.index ~base scope filter

  let validate ?(extensions = true) ?pool schema s =
    Legality.check ~extensions ?pool ~index:s.index ~vindex:s.vindex
      ~memo:s.memo schema (instance s)

  (* The raw structures, for oracles/benchmarks that differentially test
     them — the only sanctioned way past the snapshot surface. *)
  module Private = struct
    let index = index
    let vindex = vindex
    let memo = memo
  end
end

(* --- live sessions ----------------------------------------------------- *)

(* Query/update tallies are shared by every version of a session (the
   record travels through [{ t with ... }] untouched), so [stats] reports
   session totals no matter which version it is asked on. *)
type counters = {
  mutable queries : int;
  mutable applied : int;
  mutable rejected : int;
}

type t = {
  schema : Schema.t;
  monitor : Monitor.t;
  vindex : Vindex.t;
  memo : Plan.memo;
  pool : Pool.t option;
  owns_pool : bool;
  counters : counters;
}

let open_ ?jobs ?pool schema inst =
  let pool, owns_pool =
    match (pool, jobs) with
    | (Some _ as p), _ -> (p, false)
    | None, (None | Some 1) -> (None, false)
    | None, Some j ->
        let domains = if j <= 0 then None else Some j in
        (Some (Pool.create ?domains ()), true)
  in
  let index = Index.create ?pool inst in
  let vindex = Vindex.create ?pool index in
  let memo = Plan.memo_create vindex in
  (* The admission scan prewarms [memo] with the Figure-4 obligation
     queries, so the session's first [validate] is all cache hits. *)
  match Monitor.create ?pool ~index ~vindex ~memo schema inst with
  | Error _ as e ->
      if owns_pool then Option.iter Pool.shutdown pool;
      e
  | Ok monitor ->
      Ok
        {
          schema;
          monitor;
          vindex;
          memo;
          pool;
          owns_pool;
          counters = { queries = 0; applied = 0; rejected = 0 };
        }

let schema t = t.schema
let monitor t = t.monitor
let instance t = Monitor.instance t.monitor
let index t = Monitor.index t.monitor
let pool t = t.pool
let size t = Instance.size (instance t)

let query t q =
  t.counters.queries <- t.counters.queries + 1;
  Plan.memo_eval ?pool:t.pool t.memo q

let query_ids t q = Index.ids_of (index t) (query t q)

let explain t q =
  t.counters.queries <- t.counters.queries + 1;
  let plan = Plan.plan t.vindex q in
  let result = Plan.exec ?pool:t.pool plan in
  (plan, result)

let search t ~base scope filter =
  t.counters.queries <- t.counters.queries + 1;
  Search.search ~vindex:t.vindex (index t) ~base scope filter

let validate t =
  Legality.check ?pool:t.pool ~index:(index t) ~vindex:t.vindex ~memo:t.memo
    t.schema (instance t)

(* The one carry behind [apply], [replay] and [Bulk]'s incremental
   regime: the monitor already spliced the Δs into its live index; carry
   the value tables across the same ops and the memo across the very
   rank-space edits the index performed. *)
let carry t ops (monitor, splices) =
  let vindex = Vindex.apply ~index:(Monitor.index monitor) ops t.vindex in
  let memo = Plan.memo_apply ~vindex ~splices ops t.memo in
  t.counters.applied <- t.counters.applied + 1;
  { t with monitor; vindex; memo }

let apply t ops =
  let entries_before = size t in
  match Monitor.apply ops t.monitor with
  | Error reason ->
      t.counters.rejected <- t.counters.rejected + 1;
      (t, Admission.Rejected { reason; ops })
  | Ok step ->
      let t' = carry t ops step in
      ( t',
        Admission.Accepted
          { lsn = None; ops; entries_before; entries_after = size t' } )

let replay t ops = Result.map (carry t ops) (Monitor.replay ops t.monitor)

(* --- batched trusted ingest --------------------------------------------- *)

module Bulk = struct
  type session = t

  type t = {
    mutable live : session;  (* incrementally-patched version *)
    mutable inst : Instance.t;  (* copy-on-write instance; batch regime only *)
    mutable batched : bool;
    mutable txns : int;
    mutable pending : int;  (* ops folded in since [start] *)
    base_n : int;  (* live instance size at [start] *)
    force : [ `Batch | `Incremental ] option;  (* regime pinned by [Private] *)
  }

  (* Cost crossover.  One incremental splice pays a copy-on-write pass
     over every live structure — O(n) blits for the index, a hash-table
     copy for the value index — so k spliced transactions cost ~k·n.  A
     batch rebuild pays one full O(n + Δ) construction with heavier
     per-entry work (DFS numbering, hashing, admission-table recompute).
     Incremental therefore wins only while the transaction count stays
     under the rebuild's constant-factor ratio and Δ stays small next to
     the live instance. *)
  let rebuild_ratio = 8

  let start_with ~force (t : session) =
    {
      live = t;
      inst = instance t;
      batched = force = Some `Batch;
      txns = 0;
      pending = 0;
      base_n = size t;
      force;
    }

  let start t = start_with ~force:None t

  let add b ops =
    let pending = b.pending + List.length ops in
    if
      (not b.batched) && b.force = None
      && (b.txns + 1 >= rebuild_ratio || 4 * pending >= b.base_n + 4)
    then begin
      b.batched <- true;
      b.inst <- instance b.live
    end;
    if b.batched then
      match Update.apply b.inst ops with
      | Error msg -> Error (Monitor.Bad_ops msg)
      | Ok inst ->
          b.inst <- inst;
          b.live.counters.applied <- b.live.counters.applied + 1;
          b.txns <- b.txns + 1;
          b.pending <- pending;
          Ok ()
    else
      match replay b.live ops with
      | Error _ as e -> e
      | Ok live ->
          b.live <- live;
          b.txns <- b.txns + 1;
          b.pending <- pending;
          Ok ()

  let finish b =
    if not b.batched then b.live
    else
      (* one bulk (re)build of every deferred structure, against the
         final instance — O(n + Δ) total instead of O(txns · n) *)
      let t = b.live in
      let index = Index.create ?pool:t.pool b.inst in
      let vindex = Vindex.create ?pool:t.pool index in
      let memo = Plan.memo_create vindex in
      let monitor = Monitor.of_index_trusted t.schema index in
      { t with monitor; vindex; memo }
end

module Private = struct
  let bulk_start ~force t = Bulk.start_with ~force:(Some force) t
end

let snapshot t =
  { Snapshot.index = index t; vindex = t.vindex; memo = t.memo }

let close t = if t.owns_pool then Option.iter Pool.shutdown t.pool

(* --- stats -------------------------------------------------------------- *)

type stats = {
  entries : int;
  queries : int;
  applied : int;
  rejected : int;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
  memo_migrated : int;
  memo_dropped : int;
  intern : Intern.stat list;
}

let stats t =
  let memo_hits, memo_misses, memo_entries = Plan.memo_stats t.memo in
  let memo_migrated, memo_dropped = Plan.memo_migration_stats t.memo in
  {
    entries = size t;
    queries = t.counters.queries;
    applied = t.counters.applied;
    rejected = t.counters.rejected;
    memo_hits;
    memo_misses;
    memo_entries;
    memo_migrated;
    memo_dropped;
    intern = Intern.stats ();
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>entries: %d@ queries: %d@ updates: %d applied, %d rejected@ memo: \
     %d entries (%d hits, %d misses; migration carried %d, dropped %d)@ \
     intern:@   %a@]"
    s.entries s.queries s.applied s.rejected s.memo_entries s.memo_hits
    s.memo_misses s.memo_migrated s.memo_dropped Intern.pp_stats s.intern
