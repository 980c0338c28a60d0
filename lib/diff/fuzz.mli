(** The differential fuzzing driver.

    For each oracle: generate [budget] cases from a seed, check each, and
    shrink any discrepancy to a local minimum.  Case generation derives an
    independent PRNG per (oracle, seed, index), so a single failing case
    can be regenerated — and the whole run reproduced — from the seed
    alone, regardless of oracle selection. *)

type failure = {
  case : Case.t;  (** shrunk counterexample *)
  message : string;  (** discrepancy report from the oracle *)
}

type report = {
  oracle : string;
  budget : int;  (** cases generated and checked *)
  failures : failure list;
}

(** [run_oracle ~budget ~seed o] — fuzz one oracle.  Stops collecting
    (but keeps counting) after [max_failures] distinct shrunk
    counterexamples (default 3).  [log] receives one line per failure as
    it is found. *)
val run_oracle :
  ?max_failures:int ->
  ?log:(string -> unit) ->
  budget:int ->
  seed:int ->
  Oracle.t ->
  report

(** [run ~budget ~seed ()] — fuzz every oracle (or just [oracles]), one
    after another.  Reports come back in registry order (or in the order
    of [oracles]).  Errors on an unknown oracle name. *)
val run :
  ?oracles:string list ->
  ?max_failures:int ->
  ?log:(string -> unit) ->
  budget:int ->
  seed:int ->
  unit ->
  (report list, string) result

val total_failures : report list -> int

(** {2 Regression corpus} *)

(** [save_case ~dir case] writes [case] to [dir]/[oracle]-[hash].case and
    returns the path. *)
val save_case : dir:string -> Case.t -> string

(** [load_corpus ~dir] reads every [*.case] file (sorted by name).
    Errors if any file fails to decode — a corrupt corpus must not pass
    silently. *)
val load_corpus : dir:string -> ((string * Case.t) list, string) result

(** [replay case] re-checks a corpus case against its named oracle.
    [Error _] if the oracle is unknown. *)
val replay : Case.t -> (Oracle.outcome, string) result
