(** LDIF interchange: read and write directory instances.

    The reader accepts the core of RFC 2849: records separated by blank
    lines, [dn:] first, one [attr: value] pair per line, continuation
    lines starting with a single space, [#] comments, and base64 values
    ([attr:: b64]).  Values are typed through a {!Typing.t} registry; the
    entry's class set is derived from its [objectClass] lines
    (Definition 2.1 condition 3b therefore holds by construction).

    The forest shape is recovered from the DNs: an entry whose DN minus
    its first RDN equals the DN of a previously read entry becomes that
    entry's child; otherwise it is a root.  Parents must be written before
    children (the natural LDIF order). *)

open Bounds_model

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** [fold_entries ~typing f init s] streams the document: each record is
    built into an {!Entry.t} and handed to [f] with its resolved parent,
    in reading order, without materializing line or record lists.  The
    k-th record (0-based) gets id [id_of k] (default [k]).  An [Error]
    from [f] becomes a positioned {!error} at the record's [dn:] line —
    this is how a checkpoint load reports an {!Instance.add} rejection.
    Folding stops at the first error. *)
val fold_entries :
  ?id_of:(int -> Entry.id) ->
  typing:Typing.t ->
  (parent:Entry.id option -> Entry.t -> 'a -> ('a, string) result) ->
  'a ->
  string ->
  ('a, error) result

(** [parse ~typing s] reads a whole LDIF document.  Entry ids are assigned
    in reading order starting from [first_id] (default 0). *)
val parse : ?first_id:int -> typing:Typing.t -> string -> (Instance.t, error) result

val parse_exn : ?first_id:int -> typing:Typing.t -> string -> Instance.t

(** [to_string inst] renders the instance in parent-before-child order;
    [parse] of the result reconstructs an instance equal up to entry
    ids. *)
val to_string : Instance.t -> string

val pp : Format.formatter -> Instance.t -> unit

(** {2 Base64} — the RFC 4648 codec behind [attr:: value] lines, exposed
    for decode-vector tests and differential fuzzing. *)

val b64_encode : string -> string

(** Strict decoder: rejects non-alphabet bytes, lengths not a multiple of
    four, and [=] padding anywhere but the final one or two positions.
    Raises [Invalid_argument] with a positioned message on malformed
    input. *)
val b64_decode : string -> string

(** {2 Change records}

    [parse_changes ~typing inst text] reads LDIF change records —
    [dn:] plus [changetype: add] (the default; attribute lines follow)
    or [changetype: delete] — into update ops against [inst]: DNs
    resolve against the adds already read (an add may parent later
    adds), then against the instance through
    {!Bounds_model.Instance.resolve_dn}; fresh ids are assigned past the
    instance's.  Because resolution is against a concrete version,
    callers admitting concurrently (the network server) must parse at
    admission time, against the version the transaction will apply to. *)
val parse_changes :
  typing:Typing.t ->
  Instance.t ->
  string ->
  (Update.op list, string) result
