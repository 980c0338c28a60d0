exception Crash

type t = {
  read : string -> string option;
  write : string -> string -> unit;
  append : string -> string -> unit;
  remove : string -> unit;
  rename : string -> string -> unit;
}

(* --- real files -------------------------------------------------------- *)

(* Unique temp-file suffix: two writers (a server checkpoint racing a CLI
   [checkpoint] verb) must never share a temp path, or each clobbers the
   other's half-written bytes before the rename.  pid + per-process
   counter keeps names distinct across processes and within one. *)
let tmp_counter = Atomic.make 0

let tmp_name name =
  Printf.sprintf "%s.tmp.%d.%d" name (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let is_tmp name =
  (* [base.tmp.pid.k] — anything an interrupted writer may have left *)
  let rec has_sub i =
    i + 4 <= String.length name
    && (String.sub name i 4 = ".tmp" || has_sub (i + 1))
  in
  has_sub 0

(* fsync a directory so a just-renamed or just-created entry survives
   power loss (POSIX durability requires syncing the parent too).  Some
   filesystems refuse fsync on a directory fd; that leaves us no worse
   than before, so the error is swallowed. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* One descriptor held back for the whole process, taken when a handle
   is made, before a daemon accepts anyone.  An append refused a
   descriptor gives it back and retries, then takes it again once its
   file is closed, so a daemon whose connections hold every other
   descriptor can still commit. *)
let spare = ref None
let spare_lock = Mutex.create ()

let take_spare () =
  if !spare = None then
    spare :=
      try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
      with Unix.Unix_error _ -> None

let open_append path =
  let flags = [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] in
  Mutex.protect spare_lock (fun () ->
      match Unix.openfile path flags 0o644 with
      | fd -> fd
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _)
        when !spare <> None ->
          Option.iter Unix.close !spare;
          spare := None;
          Unix.openfile path flags 0o644)

let real ?(fsync = true) ~root () =
  Mutex.protect spare_lock take_spare;
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  (* clean up temp files a crashed or interrupted writer left behind:
     they are by construction un-renamed, i.e. never part of the store *)
  Array.iter
    (fun name ->
      if is_tmp name then try Sys.remove (Filename.concat root name) with Sys_error _ -> ())
    (Sys.readdir root);
  let p name = Filename.concat root name in
  let sync_channel oc =
    flush oc;
    if fsync then Unix.fsync (Unix.descr_of_out_channel oc)
  in
  let read name =
    let path = p name in
    if not (Sys.file_exists path) then None
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
  in
  let write name data =
    (* create-or-replace through a unique temp file and [Sys.rename].
       What is guaranteed: readers never observe a half-written file
       (rename is atomic on POSIX), and — with [fsync] — once [write]
       returns, the new contents survive power loss (file fsynced before
       the rename, directory fsynced after it).  Without [fsync] the
       rename is still atomic against concurrent readers, but a crash
       can roll the file back to its previous contents, or to nothing. *)
    let tmp = p (tmp_name name) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc data;
        sync_channel oc);
    Sys.rename tmp (p name);
    if fsync then fsync_dir root
  in
  let append name data =
    let path = p name in
    let created = not (Sys.file_exists path) in
    let oc = Unix.out_channel_of_descr (open_append path) in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        Mutex.protect spare_lock take_spare)
      (fun () ->
        output_string oc data;
        (* durability stops at the OS page cache unless the fd is
           fsynced before [append] returns: this is what lets the store
           acknowledge a transaction as durable *)
        sync_channel oc);
    if fsync && created then fsync_dir root
  in
  let remove name = if Sys.file_exists (p name) then Sys.remove (p name) in
  let rename a b =
    Sys.rename (p a) (p b);
    if fsync then fsync_dir root
  in
  { read; write; append; remove; rename }

(* --- in-memory files --------------------------------------------------- *)

(* Hot append paths (fuzz and crash-point suites replay whole scripted
   sessions against [mem]) must not rebuild the file per record — an
   O(n^2) log.  Files therefore live as either a materialized string or
   an append [Buffer]; [read] materializes a buffer-backed file without
   flipping its representation, so an append-heavy file stays cheap. *)
type node = Str of string | Buf of Buffer.t

type fs = (string, node) Hashtbl.t

let fresh_fs () : fs = Hashtbl.create 8

let copy_fs (fs : fs) : fs =
  (* deep copy: a shared [Buffer] would leak appends across snapshots *)
  let out = Hashtbl.create (Hashtbl.length fs) in
  Hashtbl.iter
    (fun name node ->
      let node' =
        match node with
        | Str s -> Str s
        | Buf b ->
            let b' = Buffer.create (Buffer.length b + 64) in
            Buffer.add_buffer b' b;
            Buf b'
      in
      Hashtbl.replace out name node')
    fs;
  out

let materialize = function Str s -> s | Buf b -> Buffer.contents b

let read_fs fs name = Option.map materialize (Hashtbl.find_opt fs name)
let write_fs fs name data = Hashtbl.replace fs name (Str data)
let remove_fs fs name = Hashtbl.remove fs name

let append_fs fs name data =
  match Hashtbl.find_opt fs name with
  | Some (Buf b) -> Buffer.add_string b data
  | (Some (Str _) | None) as prev ->
      let b = Buffer.create (String.length data + 256) in
      (match prev with Some (Str s) -> Buffer.add_string b s | _ -> ());
      Buffer.add_string b data;
      Hashtbl.replace fs name (Buf b)

let mem fs =
  {
    read = (fun name -> read_fs fs name);
    write = (fun name data -> write_fs fs name data);
    append = (fun name data -> append_fs fs name data);
    remove = (fun name -> Hashtbl.remove fs name);
    rename =
      (fun a b ->
        match Hashtbl.find_opt fs a with
        | None -> raise (Sys_error (a ^ ": no such file"))
        | Some node ->
            Hashtbl.remove fs a;
            Hashtbl.replace fs b node);
  }

(* --- fault injection ---------------------------------------------------- *)

type fault =
  | Crash_at of int
  | Tear of { op : int; keep : int }
  | Flip of { op : int; byte : int; bit : int }

let flip_payload ~byte ~bit data =
  if byte < 0 || byte >= String.length data then data
  else begin
    let b = Bytes.of_string data in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit land 7))));
    Bytes.to_string b
  end

let faulty ~faults io =
  let op = ref 0 in
  let dead = ref false in
  let guard () = if !dead then raise Crash in
  (* [step payload apply] — run one mutating operation under the
     schedule; [apply] consumes the (possibly damaged) payload. *)
  let step payload apply =
    guard ();
    let here = !op in
    incr op;
    let fault =
      List.find_opt
        (function
          | Crash_at o -> o = here
          | Tear { op = o; _ } -> o = here
          | Flip { op = o; _ } -> o = here)
        faults
    in
    match fault with
    | None -> apply payload
    | Some (Crash_at _) ->
        dead := true;
        raise Crash
    | Some (Tear { keep; _ }) ->
        let keep = max 0 (min keep (String.length payload)) in
        if keep > 0 then apply (String.sub payload 0 keep);
        dead := true;
        raise Crash
    | Some (Flip { byte; bit; _ }) -> apply (flip_payload ~byte ~bit payload)
  in
  {
    read =
      (fun name ->
        guard ();
        io.read name);
    write = (fun name data -> step data (fun d -> io.write name d));
    append = (fun name data -> step data (fun d -> io.append name d));
    remove = (fun name -> step "" (fun _ -> io.remove name));
    rename = (fun a b -> step "" (fun _ -> io.rename a b));
  }

let counting io =
  let sizes = ref [] in
  let note n =
    sizes := n :: !sizes;
    ()
  in
  let t =
    {
      read = io.read;
      write =
        (fun name data ->
          note (String.length data);
          io.write name data);
      append =
        (fun name data ->
          note (String.length data);
          io.append name data);
      remove =
        (fun name ->
          note 0;
          io.remove name);
      rename =
        (fun a b ->
          note 0;
          io.rename a b);
    }
  in
  (t, fun () -> List.mapi (fun i n -> (i, n)) (List.rev !sizes))
