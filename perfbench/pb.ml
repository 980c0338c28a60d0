(* The repository benchmark.  See NOTES.md for the workloads, metrics
   and the layer map.

     pb --workload read|mixed --seed N --seconds S --trace 0|1
        --exe LDAPSCHEMA --work DIR

   runs one workload against real daemons and prints, as its last
   line, one JSON object: the end-to-end metrics with [--trace 0], the
   per-layer metrics of a traced in-process replay with [--trace 1].
   A wrong answer or a failed request ends the run with exit code 1 and
   no result line.  [pb setup] and [pb trace] are the child processes
   the run starts. *)

open Perfbench
module Proto = Bounds_net.Proto

let now = Unix.gettimeofday
let info fmt = Printf.ksprintf print_endline fmt

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* --- arguments ----------------------------------------------------------- *)

let args =
  let rec pairs = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
        (String.sub k 2 (String.length k - 2), v) :: pairs tl
    | [] -> []
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  lazy
    (match Array.to_list Sys.argv with
    | _ :: ("setup" | "trace") :: tl | _ :: tl -> pairs tl
    | [] -> [])

let arg k =
  match List.assoc_opt k (Lazy.force args) with
  | Some v -> v
  | None -> failwith ("missing --" ^ k)

let workload () =
  match Inputs.workload_of_string (arg "workload") with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ arg "workload")

(* --- child processes of this program ---------------------------------------- *)

let child args =
  let self = Sys.executable_name in
  let ic = Unix.open_process_args_in self (Array.of_list (self :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' out
  | _ -> failwith (String.concat " " ("pb" :: args) ^ " failed")

let fields prefix lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | p :: rest when p = prefix -> Some rest
      | _ -> None)
    lines

(* --- phases -------------------------------------------------------------- *)

let warmup_s = 1.0

(* Read the store's files so restart is timed from a warm page cache. *)
let warm dir =
  Array.iter
    (fun f -> ignore (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    (Sys.readdir dir)

type fresh = { parent_dn : string; uid : string; added : float; mutable deleted : float option }

(* The closed-loop reader, cycling through the plan's stream.  [fresh]
   lists the persons the writer may have had in the directory while a
   read was in flight; each that falls in the read's scope may join its
   answer. *)
let reader ~fresh client (plan : Inputs.plan) =
  let i = ref 0 in
  Load.lane ~start:(now ()) client (fun () ->
      let r = plan.reads.(!i mod Array.length plan.reads) in
      incr i;
      let extra ~sent ~recv =
        List.length
          (List.filter
             (fun f ->
               f.added < recv
               && (match f.deleted with None -> true | Some t -> t > sent)
               && Inputs.fresh_joins r ~parent_dn:f.parent_dn)
             !fresh)
      in
      {
        Load.cls = Inputs.cls_name r.cls;
        req =
          (match r.cls with
          | Inputs.Query -> Proto.Query r.text
          | Inputs.Lookup | Inputs.Search ->
              Proto.Search { base = r.base; scope = "sub"; filter = r.text });
        on_send = ignore;
        check = (fun ~sent ~recv body -> Inputs.check ~extra:(extra ~sent ~recv) r body);
      })

(* The open-loop writer: insert/delete pairs of fresh persons, one
   transaction per [period].  Returns the lane and the number of
   transactions it has sent. *)
let writer ~period ~fresh ~acked ~tag ~parents client =
  let k = ref 0 in
  let l =
    Load.lane ~period ~start:(now ()) client (fun () ->
        let w = Inputs.write_txn ~tag ~parents !k in
        incr k;
        {
          Load.cls = "write";
          req = Proto.Apply (Inputs.write_text w);
          on_send =
            (fun t ->
              if w.insert then
                fresh := { parent_dn = w.parent_dn; uid = w.uid; added = t; deleted = None } :: !fresh);
          check =
            (fun ~sent:_ ~recv body ->
              if String.starts_with ~prefix:"applied " body then begin
                incr acked;
                if not w.insert then
                  List.iter (fun f -> if f.uid = w.uid then f.deleted <- Some recv) !fresh;
                Ok ()
              end
              else Error body);
        })
  in
  (l, k)

(* Finish an open insert/delete pair so the directory ends as it began. *)
let close_pair (l, k) =
  if !k mod 2 = 1 then begin
    let t = Load.tally () in
    l.Load.due <- now ();
    l.Load.left <- 1;
    Load.run ~into:t [ l ] ~until:infinity;
    if t.Load.wrong <> [] then wrong "closing delete: %s" (List.hd t.Load.wrong)
  end

(* Untimed traffic before the window, so caches fill and lazy set-up is
   done; its answers are checked all the same. *)
let warmup lanes =
  let t = Load.tally () in
  Load.run ~into:t lanes ~until:(now () +. warmup_s);
  if t.Load.wrong <> [] then wrong "warm-up: %s" (List.hd t.Load.wrong)

let timed_window ?(extra = []) lanes ~seconds =
  let t = Load.tally () in
  let t0 = now () in
  List.iter (fun l -> l.Load.due <- t0) (lanes @ extra);
  Load.run ~into:t (lanes @ extra) ~until:(t0 +. seconds);
  t

let person_count c =
  match String.split_on_char '\n' (Daemon.request c (Proto.Query "(objectClass=person)")) with
  | n :: _ -> int_of_string n
  | [] -> wrong "empty person count"

(* Prints the sample count, mean, median, highest reportable percentile
   and deciles of the classes [cls] accepts, and returns their sorted
   latencies. *)
let describe t ~name ~cls =
  let a = Load.latencies_ms t cls in
  let n = Array.length a in
  let pct pm = Result.map (Printf.sprintf "p%g %.2f" (float_of_int pm /. 10.)) (Stats.percentile ~pm a) in
  info "samples %s %d mean %.3f ms, %s, %s, deciles %s" name n
    (Array.fold_left ( +. ) 0. a /. float_of_int (max 1 n))
    (Result.value (pct 500) ~default:"p50 -")
    (Option.value ~default:"no tail"
       (List.find_map (fun pm -> Result.to_option (pct pm)) [ 999; 990; 900 ]))
    (String.concat " "
       (List.init 9 (fun i -> if n = 0 then "-" else Printf.sprintf "%.2f" a.((i + 1) * n / 10))));
  a

(* The latency of a read class: its p90, or a loud failure when the run
   gave too few samples for it (NOTES.md says why not the median). *)
let latency_metric t ~name ~cls =
  match Stats.percentile ~pm:900 (describe t ~name ~cls) with
  | Ok value -> { Stats.name; value; unit_ = "ms" }
  | Error e -> wrong "%s: %s" name e

let class_mean t cls =
  let a = Load.latencies_ms t (String.equal cls) in
  Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

(* --- the run ------------------------------------------------------------- *)

type outcome = {
  metrics : Stats.metric list;
  attempted : int;
  failed : int;
  tag : string;  (** uid tag of the run's wire writes *)
  means : (string * float) list;  (** per read class, ms *)
  live : Stats.metric list;  (** per-layer metrics read off the daemons *)
}

let setup_reps = 3

let run ~workload ~seed ~seconds ~trace ~exe ~dir =
  let name = Inputs.workload_name workload in
  let setup_times =
    List.init setup_reps (fun i ->
        match
          fields "setup_s"
            (child
               ([ "setup"; "--workload"; name; "--seed"; string_of_int seed; "--dir"; dir ]
               @ if i = setup_reps - 1 then [ "--plan"; "1" ] else []))
        with
        | [ [ s ] ] -> float_of_string s
        | _ -> failwith "setup printed no time")
  in
  let plan = Inputs.read_plan (Filename.concat dir "plan.tsv") in
  let primary = Setup.primary dir and replica = Setup.replica dir in
  if trace then begin
    Sys.mkdir (Filename.concat dir "pristine") 0o755;
    Setup.copy_dir primary (Filename.concat dir "pristine/primary");
    Setup.copy_dir replica (Filename.concat dir "pristine/replica")
  end;
  let store_bytes = Setup.store_bytes primary in
  let persons = Inputs.shape.units * Inputs.shape.persons in
  let tag = Inputs.fresh_tag () in
  info "workload %s seed %d tag %s entries %d lsn %d" name seed tag plan.entries plan.lsn;
  (* restart: a fresh daemon on the prepared store, timed from spawn to
     its first reply, the store's files read into the page cache first *)
  warm primary;
  let t0 = now () in
  let d = Daemon.serve ~exe ~store:primary in
  let c = Daemon.connect d in
  ignore (Daemon.request c Proto.Ping);
  info "restart %.3f s" (now () -. t0);
  let fresh = ref [] and acked = ref 0 in
  let rd = reader ~fresh c plan in
  warmup [ rd ];
  let t =
    match workload with
    | Inputs.Read -> timed_window [ rd ] ~seconds
    | Inputs.Mixed ->
        let c2 = Daemon.connect d in
        let ((wl, _) as w) = writer ~period:2.0 ~fresh ~acked ~tag ~parents:plan.parents c2 in
        let t = timed_window [ rd ] ~extra:[ wl ] ~seconds in
        close_pair w;
        Daemon.close c2;
        let writes = Load.latencies_ms t (String.equal "write") in
        let late =
          List.fold_left
            (fun m s -> if s.Load.s_cls = "write" then Float.max m (1000. *. s.Load.late) else m)
            0. t.Load.samples
        in
        info "writes %d open-loop at 0.5/s: latency ms [%s], max lateness %.3f ms"
          (Array.length writes)
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") writes)))
          late;
        t
  in
  if t.Load.wrong <> [] then wrong "%d wrong answers, first: %s" (List.length t.Load.wrong) (List.hd (List.rev t.Load.wrong));
  (* the log holds exactly the acknowledged writes *)
  let lsn = Daemon.stat c "lsn" in
  if lsn <> plan.lsn + !acked then wrong "primary lsn %d, expected %d + %d acknowledged" lsn plan.lsn !acked;
  if person_count c <> persons then wrong "primary answers %d persons, expected %d" (person_count c) persons;
  let peak_rss_mb = Daemon.peak_rss_mb d in
  let live =
    if not trace then []
    else begin
      let pings = 200 in
      let t0 = now () in
      for _ = 1 to pings do
        ignore (Daemon.request c Proto.Ping)
      done;
      let rtt = 1000. *. (now () -. t0) /. float_of_int pings in
      let batches = Daemon.stat c "batches" in
      [
        { Stats.name = "net.rtt_ms"; value = rtt; unit_ = "ms" };
        {
          Stats.name = "server.txns_per_commit";
          value = (if batches = 0 then 0. else float_of_int (Daemon.stat c "batched") /. float_of_int batches);
          unit_ = "count";
        };
      ]
    end
  in
  Daemon.close c;
  Daemon.stop d;
  let attempted = List.length t.Load.samples in
  let failed = Load.count t (fun s -> not s.Load.ok) in
  if failed > 0 then wrong "%d of %d requests failed" failed attempted;
  let m name value unit_ = { Stats.name; value; unit_ } in
  let fixed =
    [
      m "setup_s" (Stats.median setup_times) "s";
      m "peak_rss_mb" peak_rss_mb "MiB";
      m "store_bytes_per_entry" (float_of_int store_bytes /. float_of_int plan.entries) "B";
    ]
  in
  let latencies =
    List.map (fun (_, c) -> latency_metric t ~name:(c ^ "_p90_ms") ~cls:(String.equal c)) Inputs.classes
  in
  ignore (describe t ~name:"reads" ~cls:(( <> ) "write"));
  info "requests %.1f/s" (float_of_int (Load.count t (fun s -> s.Load.ok)) /. seconds);
  let metrics = fixed @ latencies in
  {
    metrics;
    attempted;
    failed;
    tag;
    means = List.map (fun (_, cls) -> (cls, class_mean t cls)) Inputs.classes;
    live;
  }

let main () =
  let workload = workload () in
  let seed = int_of_string (arg "seed") in
  match Sys.argv.(1) with
  | "setup" ->
      let s = Setup.run ~seed ~dir:(arg "dir") ~plan:(List.mem_assoc "plan" (Lazy.force args)) in
      Printf.printf "setup_s %.17g\n" s
  | "trace" -> Trace.main ~dir:(arg "dir") ~tag:(arg "tag")
  | _ ->
      let dir = Filename.concat (arg "work") (Inputs.workload_name workload) in
      let seconds = float_of_string (arg "seconds") in
      let trace = arg "trace" = "1" in
      let exe = arg "exe" in
      if not (Sys.file_exists (arg "work")) then Sys.mkdir (arg "work") 0o755;
      let o = run ~workload ~seed ~seconds ~trace ~exe ~dir in
      let metrics =
        if not trace then o.metrics
        else begin
          let lines =
            child [ "trace"; "--workload"; Inputs.workload_name workload; "--seed"; string_of_int seed; "--dir"; dir; "--tag"; o.tag ]
          in
          let traced =
            List.map
              (function
                | [ name; v; u ] -> { Stats.name; value = float_of_string v; unit_ = u }
                | _ -> failwith "trace: bad metric line")
              (fields "metric" lines)
          in
          let layers = List.map (function [ c; v ] -> (c, float_of_string v) | _ -> failwith "trace: bad layers line") (fields "layers" lines) in
          traced @ o.live
          @ List.map
              (fun (c, e2e) ->
                { Stats.name = c ^ ".unattributed_ms"; value = e2e -. List.assoc c layers; unit_ = "ms" })
              o.means
        end
      in
      print_endline
        (Stats.result_line ~correct:true ~attempted:o.attempted ~failed:o.failed metrics)

let () =
  at_exit Daemon.kill_all;
  (* every run ends well inside the 180 s a run may take *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "pb: run exceeded 170 s";
         exit 3));
  (* stopped from outside: still take the daemons down *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm 170);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main () with
  | () -> ()
  | exception Wrong msg ->
      prerr_endline ("pb: wrong result: " ^ msg);
      exit 1
  | exception e ->
      prerr_endline ("pb: " ^ Printexc.to_string e);
      exit 1
