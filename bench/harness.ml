(* The bench runner.  An experiment is a record: its claim, the sizes it
   sweeps at full and smoke scale, the file its --json report goes to,
   and a [run] that measures and returns rows of named values.  One
   printer renders every report (its tables, then a shape table fitting
   each series that declares a shape), one writer turns reports into the
   BENCH_*.json files, and the fixtures the experiments share live here
   too.  A series that declares itself flat or linear and was measured
   at four sizes or more is a gate: the run exits 1 when it breaks its
   margin. *)

open Bechamel
open Bounds_model
module WP = Bounds_workload.White_pages
module Store = Bounds_store.Store
module Sio = Bounds_store.Io

(* --- values ---------------------------------------------------------------- *)

(* A value in a table row or a JSON document.  The constructor says how it
   shows: a table gives a duration or a size a readable unit where JSON
   keeps the number, and a non-finite number is "-" in a table and null
   in JSON. *)
type v =
  | Int of int
  | Num of int * float  (** printed with this many decimals *)
  | Ns of float  (** a duration in nanoseconds *)
  | Secs of float  (** a duration in seconds *)
  | Bytes of int
  | Str of string
  | Bool of bool
  | List of v list
  | Obj of (string * v) list

type row = (string * v) list

let ratio a b = Num (3, a /. b)

(* The columns of [rows] named in [cols], as (title, name) pairs. *)
let pick cols rows =
  List.map (fun row -> List.map (fun (title, name) -> (title, List.assoc name row)) cols) rows

(* The number [row] holds under [name]. *)
let get row name =
  match List.assoc name row with
  | Int i | Bytes i -> float_of_int i
  | Num (_, x) | Ns x | Secs x -> x
  | Str _ | Bool _ | List _ | Obj _ -> Float.nan

let pp_time ns =
  if Float.is_nan ns then "      n/a"
  else if ns >= 1e9 then Printf.sprintf "%7.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%7.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%7.2f us" (ns /. 1e3)
  else Printf.sprintf "%7.1f ns" ns

let pp_bytes b =
  if b >= 1 lsl 30 then
    Printf.sprintf "%7.2f GiB" (float_of_int b /. float_of_int (1 lsl 30))
  else if b >= 1 lsl 20 then
    Printf.sprintf "%7.1f MiB" (float_of_int b /. float_of_int (1 lsl 20))
  else Printf.sprintf "%7d KiB" (b / 1024)

(* --- JSON ------------------------------------------------------------------ *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_string b (Printf.sprintf "\\%c" c)
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let number digits x = if Float.is_finite x then Printf.sprintf "%.*f" digits x else "null"

(* A list, and an object holding a list or an object, put one element
   per line; a flat object (one point) stays on one line. *)
let rec json indent = function
  | Int i | Bytes i -> string_of_int i
  | Num (digits, x) -> number digits x
  | Ns ns -> number 1 ns
  | Secs s -> number 6 s
  | Str s -> quote s
  | Bool b -> string_of_bool b
  | List [] -> "[]"
  | List l -> block indent "[" "]" (List.map (json (indent ^ "  ")) l)
  | Obj fields ->
      let member (k, v) = quote k ^ ": " ^ json (indent ^ "  ") v in
      if List.exists (function _, (List _ | Obj _) -> true | _ -> false) fields then
        block indent "{" "}" (List.map member fields)
      else "{ " ^ String.concat ", " (List.map member fields) ^ " }"

and block indent opening closing items =
  let inner = indent ^ "  " in
  opening ^ "\n" ^ inner
  ^ String.concat (",\n" ^ inner) items
  ^ "\n" ^ indent ^ closing

let write_json file v =
  Out_channel.with_open_text file (fun oc -> output_string oc (json "" v ^ "\n"));
  Printf.printf "  wrote %s\n" file

(* Peak major-heap footprint of the process so far, in bytes.
   [top_heap_words] is a monotone high-water mark, so a reading taken
   when an experiment ends covers everything it allocated; every
   BENCH_*.json carries it so the memory trajectory is tracked across
   changes alongside the time series. *)
let peak_heap_bytes () = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let peak () = ("peak_heap_bytes", Int (peak_heap_bytes ()))

(* The fields of a BENCH_*.json after "experiment": the common head, then
   [fields]. *)
let head ?(workload = "white-pages") ~smoke fields =
  ("workload", Str workload) :: ("smoke", Bool smoke) :: peak () :: fields

(* --- series and shapes ----------------------------------------------------- *)

(* A claimed growth shape, and the steepest log-log slope it allows when
   gated: at most 1.3x per doubling for flat, 2.6x for linear.  Quadratic
   and polynomial series are recorded, not gated. *)
type shape = { shape_name : string; max_slope : float option }

let flat = { shape_name = "flat"; max_slope = Some 0.38 }
let linear = { shape_name = "linear"; max_slope = Some 1.38 }
let quadratic = { shape_name = "quadratic"; max_slope = None }
let polynomial = { shape_name = "polynomial"; max_slope = None }

(* One bechamel series: [make n] builds the inputs at size [n], untimed,
   and returns the thunk that is timed. *)
type series = {
  name : string;
  shape : shape option;
  args : int list;
  make : int -> unit -> unit;
}

let series ?shape name args make = { name; shape; args; make }

(* A series with its estimate, in ns per run, at each of its sizes. *)
type timed = series * (int * float) list

(* Time the series as one bechamel group; quotas per EXPERIMENTS.md. *)
let measure ?(smoke = false) group series : timed list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let quota = if smoke then 0.05 else 0.4 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false
      ()
  in
  let test s =
    Test.make_indexed ~name:s.name ~args:s.args (fun n -> Staged.stage (s.make n))
  in
  let raw =
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:group (List.map test series))
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate s n =
    match Hashtbl.find_opt res (Printf.sprintf "%s/%s:%d" group s.name n) with
    | Some ols -> (
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> Float.nan)
    | None -> Float.nan
  in
  List.map (fun s -> (s, List.map (fun n -> (n, estimate s n)) s.args)) series

(* ns per run of series [name] at [n] *)
let ns (timed : timed list) name n =
  match List.find_opt (fun (s, _) -> s.name = name) timed with
  | Some (_, pts) -> Option.value (List.assoc_opt n pts) ~default:Float.nan
  | None -> Float.nan

(* How many times slower series [slow] ran than [fast] at [n]. *)
let gain timed slow fast n = ratio (ns timed slow n) (ns timed fast n)

(* One row per size: the size under [size], each named series' time at
   it, each of [ratios] (title, slow series, fast series), then
   [extra n]. *)
let times ?(size = "|D|") ?(ratios = []) ?(extra = fun _ -> []) timed names sizes =
  List.map
    (fun n ->
      ((size, Int n) :: List.map (fun s -> (s, Ns (ns timed s n))) names)
      @ List.map (fun (title, slow, fast) -> (title, gain timed slow fast n)) ratios
      @ extra n)
    sizes

(* Every point of every series, as P1-P5 write them. *)
let points (timed : timed list) =
  ( "points",
    List
      (List.concat_map
         (fun (s, pts) ->
           List.map
             (fun (n, t) ->
               Obj [ ("series", Str s.name); ("n", Int n); ("ns_per_run", Ns t) ])
             pts)
         timed) )

(* Least-squares slope of log time against log size, over the finite
   points. *)
let slope pts =
  let pts = List.filter (fun (n, t) -> n > 0 && Float.is_finite t && t > 0.) pts in
  let xs = List.map (fun (n, _) -> log (float_of_int n)) pts in
  let ys = List.map (fun (_, t) -> log t) pts in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let mx = mean xs and my = mean ys in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. xs ys in
  sxy /. List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. xs

(* The margin a series is held to: a flat or linear one measured at four
   sizes or more. *)
let gate ((s, pts) : timed) =
  match Option.bind s.shape (fun shape -> shape.max_slope) with
  | Some m when List.length (List.filter (fun (_, t) -> Float.is_finite t) pts) >= 4 ->
      Some m
  | _ -> None

let broken ((_, pts) as t) =
  Option.fold (gate t) ~none:false ~some:(fun m -> slope pts > m)

(* --- experiments and their reports ----------------------------------------- *)

type report = {
  tables : (string * row list) list;  (** caption, rows *)
  timed : timed list;  (** the shape table fits those with a shape *)
  note : string;  (** the claim's own summary *)
  json : (string * v) list;  (** the fields after "experiment" *)
}

let report ?(tables = []) ?(timed = []) ?(note = "") ?(json = []) () =
  { tables; timed; note; json }

type experiment = {
  id : string;
  title : string;
  claim : string;
  sizes : int list * int list;  (** full, smoke *)
  output : string option;  (** the file --json writes *)
  run : smoke:bool -> int list -> report;
}

(* The theorem experiments share one file: every series with its shape,
   points and fitted slope. *)
let theorems_file = "BENCH_theorems.json"

let cell = function
  | Ns ns -> pp_time ns
  | Secs s -> pp_time (s *. 1e9)
  | Bytes b -> pp_bytes b
  | Str s -> s
  | Num (_, x) when not (Float.is_finite x) -> "-"
  | v -> json "" v

(* The names of the first row title the columns; every column is
   right-aligned to its widest cell. *)
let print_table (caption, rows) =
  match rows with
  | [] -> ()
  | first :: _ ->
      if caption <> "" then Printf.printf "  %s\n" caption;
      let lines = List.map fst first :: List.map (List.map (fun (_, v) -> cell v)) rows in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map (fun _ -> 0) first)
          lines
      in
      List.iter
        (fun line ->
          List.iter2 (Printf.printf "  %*s") widths line;
          print_newline ())
        lines

let shape_rows timed =
  List.filter_map
    (fun ((s, pts) as t) ->
      Option.map
        (fun shape ->
          let k = slope pts in
          [
            ("series", Str s.name);
            ("slope", Num (2, k));
            ("claim", Str shape.shape_name);
            ( "gate",
              Str
                (match gate t with
                | Some m -> Printf.sprintf "<= %.2f%s" m (if k > m then " BROKEN" else "")
                | None -> "recorded") );
          ])
        s.shape)
    timed

let print_report r =
  List.iter print_table r.tables;
  print_table ("shape: least-squares slope of log time against log size", shape_rows r.timed);
  if r.note <> "" then
    List.iter (Printf.printf "  %s\n") (String.split_on_char '\n' r.note)

let theorems_doc ~smoke reports =
  let one id ((s, pts) as t) =
    Obj
      [
        ("experiment", Str id);
        ("series", Str s.name);
        ("shape", Str (Option.fold ~none:"none" ~some:(fun sh -> sh.shape_name) s.shape));
        ("slope", Num (3, slope pts));
        ("max_slope", Num (2, Option.value (gate t) ~default:Float.nan));
        ( "points",
          List (List.map (fun (n, t) -> Obj [ ("n", Int n); ("ns_per_run", Ns t) ]) pts) );
      ]
  in
  Obj
    [
      ("smoke", Bool smoke);
      peak ();
      ("series", List (List.concat_map (fun (e, r) -> List.map (one e.id) r.timed) reports));
    ]

(* Arguments: --smoke, --json and experiment names (all when none). *)
let main experiments =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  let smoke = List.mem "--smoke" flags and write = List.mem "--json" flags in
  (match List.filter (fun f -> f <> "--smoke" && f <> "--json") flags with
  | [] -> ()
  | f :: _ ->
      Printf.eprintf "unknown flag %s (known: --smoke --json)\n" f;
      exit 2);
  let selected = match names with [] -> List.map (fun e -> e.id) experiments | l -> l in
  Printf.printf
    "bounding-schemas benchmark harness - shapes, not absolute numbers,\n\
     are the reproduction target (see EXPERIMENTS.md)\n";
  let reports =
    List.filter_map
      (fun name ->
        match List.find_opt (fun e -> e.id = name) experiments with
        | None ->
            Printf.printf "unknown experiment %s\n" name;
            None
        | Some e ->
            Printf.printf "\n== %-4s %s ==\nclaim: %s\n" e.id e.title e.claim;
            let r = e.run ~smoke (if smoke then snd e.sizes else fst e.sizes) in
            print_report r;
            (match e.output with
            | Some f when write && f <> theorems_file ->
                write_json f (Obj (("experiment", Str e.id) :: r.json))
            | _ -> ());
            Some (e, r))
      selected
  in
  let theorems = List.filter (fun (e, _) -> e.output = Some theorems_file) reports in
  if write && theorems <> [] then write_json theorems_file (theorems_doc ~smoke theorems);
  let broke =
    List.concat_map
      (fun (e, r) ->
        List.map (fun (s, _) -> e.id ^ " " ^ s.name) (List.filter broken r.timed))
      reports
  in
  if broke <> [] then begin
    Printf.printf "shape gate: broken by %s\n" (String.concat ", " broke);
    exit 1
  end

(* --- shared fixtures ------------------------------------------------------- *)

(* The white-pages instance of about [n] entries (n/25 units of 20
   persons), seeded by [n]. *)
let wp n = WP.generate ~seed:n ~units:(n / 25) ~persons_per_unit:20 ()

(* A series body timing [f] on [wp n], and on its evaluation index. *)
let on_wp f n =
  let inst = wp n in
  fun () -> ignore (f inst)

let on_index f n =
  let ix = Bounds_query.Index.create (wp n) in
  fun () -> ignore (f ix)

(* The highest-id entry of class [cls] in [base] (a leaf, with [leaf]). *)
let last_of ?(leaf = false) cls base =
  let c = Oclass.of_string cls in
  Instance.fold
    (fun e acc ->
      if Entry.has_class e c && ((not leaf) || Instance.is_leaf base (Entry.id e)) then
        Some (Entry.id e)
      else acc)
    base None
  |> Option.get

(* The orgUnit every experiment inserts under, and the person it deletes. *)
let unit_of = last_of "orgunit"
let leaf_person = last_of ~leaf:true "person"

(* A fresh person; its uid carries the experiment's tag, so no two
   experiments write the same uid. *)
let person tag id =
  let uid = Printf.sprintf "%s%d" tag id in
  Entry.make ~id ~rdn:("uid=" ^ uid)
    ~classes:(Oclass.set_of_list [ "person"; "top" ])
    [
      (Attr.of_string "uid", Value.String uid);
      (Attr.of_string "name", Value.String "bench");
    ]

(* The one-insert transaction of [person tag id] under [unit]. *)
let insert tag unit id = [ Update.Insert { parent = Some unit; entry = person tag id } ]

(* Remove an earlier bench run's store files (and P4's strawman
   snapshot) so [Store.init] finds no marker. *)
let clear_store io =
  List.iter io.Sio.remove
    [ Store.schema_file; Store.checkpoint_file; Store.wal_file; "snapshot.ldif" ]

(* A cleared store directory under the system temp dir.  fsync is off by
   default: P4/P5/P7 measure the WAL-vs-rewrite and replay shapes, not
   disk sync latency - P6 and P9 turn it on. *)
let bench_io ?(fsync = false) name =
  let root = Filename.concat (Filename.get_temp_dir_name ()) ("bounds-bench-" ^ name) in
  let io = Sio.real ~fsync ~root () in
  clear_store io;
  io

(* Load persons [first], [first + 1], ... ([m] of them) under [unit] in
   one [Store.load]; returns how many it loaded. *)
let load_persons st ~tag unit first m =
  Result.get_ok
    (Store.load st (fun add ->
         let rec go i =
           if i = m then Ok ()
           else
             match add ~parent:(Some unit) (person tag (first + i)) with
             | Ok () -> go (i + 1)
             | Error _ as e -> e
         in
         go 0))

(* A closed store of [wp n] whose log holds [k] one-insert records. *)
let store_with_tail name ~tag ~first n k =
  let base = wp n in
  let unit = unit_of base in
  let io = bench_io name in
  let st = Result.get_ok (Store.init io WP.schema base) in
  for i = 0 to k - 1 do
    ignore (Store.apply st (insert tag unit (first + i)))
  done;
  Store.close st;
  io

(* A fresh store on real files, [generate ~seed] with 3 units of 3
   persons: small |D|, so fsync dominates admission.  Returns the store
   and its [unit_of]. *)
let small_store ~fsync ~seed name =
  let io = bench_io ~fsync name in
  let base = WP.generate ~seed ~units:3 ~persons_per_unit:3 () in
  (Result.get_ok (Store.init io WP.schema base), unit_of base)

(* Wall-clock seconds of [f ()], with its result. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)
