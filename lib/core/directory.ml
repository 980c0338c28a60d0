open Bounds_model
module Index = Bounds_query.Index
module Vindex = Bounds_query.Vindex
module Plan = Bounds_query.Plan
module Search = Bounds_query.Search

(* --- read-only snapshots ---------------------------------------------- *)

module Snapshot = struct
  type t = { index : Index.t; vindex : Vindex.t; memo : Plan.memo }

  let of_instance inst =
    let index = Index.create inst in
    let vindex = Vindex.create index in
    { index; vindex; memo = Plan.memo_create vindex }

  let index s = s.index
  let vindex s = s.vindex
  let memo s = s.memo
  let instance s = Index.instance s.index

  (* [Plan.memo_eval] never writes the memo, so any number of reader
     threads may evaluate over one published snapshot — the lock-free
     read path of the network server's snapshot isolation. *)
  let query s q = Plan.memo_eval s.memo q
  let query_ids s q = Index.ids_of s.index (query s q)
  let query_ids_ro = query_ids

  let explain s q =
    let plan = Plan.plan s.vindex q in
    (plan, Index.ids_of s.index (Plan.exec plan))

  let search s ~base scope filter =
    Search.search ~vindex:s.vindex s.index ~base scope filter

  let validate ?(extensions = true) schema s =
    Legality.check ~extensions ~index:s.index ~vindex:s.vindex ~memo:s.memo
      schema (instance s)

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
  counters : counters;
}

let open_ schema inst =
  let { Snapshot.index; vindex; memo } = Snapshot.of_instance inst in
  (* The admission scan prewarms [memo] with every subquery of the
     Figure-4 obligations, before anything else holds it: later
     versions get their memo from [Plan.memo_apply], and reads never
     write one. *)
  Monitor.create ~index ~vindex ~memo schema inst
  |> Result.map (fun monitor ->
         {
           schema;
           monitor;
           vindex;
           memo;
           counters = { queries = 0; applied = 0; rejected = 0 };
         })

let schema t = t.schema
let monitor t = t.monitor
let instance t = Monitor.instance t.monitor
let index t = Monitor.index t.monitor
let size t = Instance.size (instance t)

let snapshot t =
  { Snapshot.index = index t; vindex = t.vindex; memo = t.memo }

(* Every session read is its snapshot's, counted. *)
let counted t =
  t.counters.queries <- t.counters.queries + 1;
  snapshot t

let query t q = Snapshot.query (counted t) q
let query_ids t q = Snapshot.query_ids (counted t) q
let explain t q = Snapshot.explain (counted t) q
let search t ~base scope filter = Snapshot.search (counted t) ~base scope filter
let validate t = Snapshot.validate t.schema (snapshot t)

(* The one carry behind [apply] and [replay]: the monitor already
   spliced the Δs into its live index; carry the value tables across the
   same ops and the memo across the very rank-space edits the index
   performed. *)
let carry t ops (monitor, splices) =
  let vindex = Vindex.apply ~index:(Monitor.index monitor) ops t.vindex in
  let memo = Plan.memo_apply ~vindex ~splices ops t.memo in
  t.counters.applied <- t.counters.applied + 1;
  { t with monitor; vindex; memo }

let apply t ops =
  match Monitor.apply ops t.monitor with
  | Error reason ->
      t.counters.rejected <- t.counters.rejected + 1;
      (t, Admission.Rejected { reason; ops })
  | Ok step -> (carry t ops step, Admission.Accepted { lsn = None; ops })

let replay t ops = Result.map (carry t ops) (Monitor.replay ops t.monitor)

(* --- batched trusted ingest --------------------------------------------- *)

module Bulk = struct
  type session = t
  type t = { session : session; mutable inst : Instance.t }

  let start t = { session = t; inst = instance t }

  (* Ops land on the copy-on-write instance only; no index work. *)
  let add b ops =
    match Update.apply b.inst ops with
    | Error msg -> Error (Monitor.Bad_ops msg)
    | Ok inst ->
        b.inst <- inst;
        b.session.counters.applied <- b.session.counters.applied + 1;
        Ok ()

  (* One build of every structure against the final instance, with no
     admission scan: O(n + Δ) however many transactions were folded. *)
  let finish b =
    let { Snapshot.index; vindex; memo } = Snapshot.of_instance b.inst in
    let monitor = Monitor.of_index_trusted b.session.schema index in
    { b.session with monitor; vindex; memo }
end

(* --- stats -------------------------------------------------------------- *)

type stats = {
  entries : int;
  queries : int;
  applied : int;
  rejected : int;
  memo_entries : int;
  memo_migrated : int;
  memo_dropped : int;
  intern : Intern.stat list;
}

let stats t =
  let memo_migrated, memo_dropped = Plan.memo_migration_stats t.memo in
  {
    entries = size t;
    queries = t.counters.queries;
    applied = t.counters.applied;
    rejected = t.counters.rejected;
    memo_entries = Plan.memo_size t.memo;
    memo_migrated;
    memo_dropped;
    intern = Intern.stats ();
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>entries: %d@ queries: %d@ updates: %d applied, %d rejected@ memo: \
     %d entries (migration carried %d, dropped %d)@ intern:@   %a@]"
    s.entries s.queries s.applied s.rejected s.memo_entries s.memo_migrated
    s.memo_dropped Intern.pp_stats s.intern
