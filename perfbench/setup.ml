(* Workload set-up: the stores a run serves, built in a child process
   so its heap is gone before any daemon starts.

   [dir]/primary is the served store: the generated instance, then
   [delta_records] transactions folded into one delta segment, then
   [wal_records] left in the WAL.  [dir]/replica is a copy of the
   primary taken right after [Store.init]: a replica store at lsn 0,
   onto which the traced run applies the primary's logged records. *)

open Bounds_model
open Bounds_core
open Perfbench
module Store = Bounds_store.Store
module Io = Bounds_store.Io

let primary dir = Filename.concat dir "primary"
let replica dir = Filename.concat dir "replica"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A store is a directory of regular files. *)
let copy_dir src dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

let store_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let accepted = function
  | Admission.Accepted _ -> ()
  | Admission.Rejected { reason; _ } ->
      failwith
        (Format.asprintf "set-up transaction rejected: %a" Monitor.pp_rejection
           reason)

(* [n] records as insert/delete pairs of fresh persons under random
   orgUnits, 32 pairs per group commit; uids [s<first>], [s<first+1>]… *)
let pairs st ~units ~rng ~first n =
  let rec go i =
    if i < n / 2 then begin
      let m = min 32 ((n / 2) - i) in
      ignore
        (Store.batch st (fun () ->
             for j = i to i + m - 1 do
               let id = Instance.fresh_id (Directory.instance (Store.directory st)) in
               let parent = units.(Random.State.int rng (Array.length units)) in
               let entry = Inputs.fresh_entry ~id ~uid:(Printf.sprintf "s%d" (first + j)) in
               accepted (Store.apply st [ Update.Insert { parent = Some parent; entry } ]);
               accepted (Store.apply st [ Update.Delete id ])
             done));
      go (i + m)
    end
  in
  go 0

let read_stream_length = 20_000
let write_parents = 4096

(* Builds the stores and returns the seconds it took; with [plan], also
   derives the run's request stream (untimed). *)
let run ~seed ~dir ~plan =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let shape = Inputs.shape in
  let t0 = Unix.gettimeofday () in
  let inst = Inputs.instance ~seed in
  let st =
    match Store.init (Io.real ~root:(primary dir) ()) Bounds_workload.White_pages.schema inst with
    | Ok st -> st
    | Error e -> failwith (Store.error_to_string e)
  in
  copy_dir (primary dir) (replica dir);
  let units = Inputs.ids_with inst (Oclass.of_string "orgunit") in
  let rng = Random.State.make [| seed; 0x7e |] in
  pairs st ~units ~rng ~first:0 shape.delta_records;
  Store.checkpoint st;
  pairs st ~units ~rng ~first:shape.delta_records shape.wal_records;
  let lsn = Store.lsn st in
  Store.close st;
  let seconds = Unix.gettimeofday () -. t0 in
  if plan then
    Inputs.write_plan (Filename.concat dir "plan.tsv")
      {
        Inputs.entries = Instance.size inst;
        lsn;
        parents = Inputs.write_parents ~seed inst ~n:write_parents;
        reads = Inputs.read_stream ~seed inst ~n:read_stream_length;
      };
  seconds
