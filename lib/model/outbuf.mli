(** A growable byte buffer whose bytes the caller may read and write in
    place.

    A DN listing is rendered into one ({!Instance.add_dns}), and a
    connection keeps one for its responses ([Bounds_net.Conn]): it
    renders a payload after the frame header's room, seals the header
    over the payload and writes the frame straight from [bytes].
    Unlike [Buffer.t], nothing has to be copied out to use the
    contents. *)

type t = {
  mutable bytes : Bytes.t;  (** the contents are [[0, len)]; the rest is scratch *)
  mutable len : int;
}

(** An empty buffer with room for [n] bytes (at least one). *)
val create : int -> t

(** The [add_*] functions append, doubling [bytes] (contents kept) as
    often as they need room. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

(** [add_copy t off n] appends a copy of the [n] bytes of the contents
    at [off]. *)
val add_copy : t -> int -> int -> unit

(** A fresh string of the contents. *)
val contents : t -> string
