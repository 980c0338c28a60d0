open Bounds_model

type substring = {
  initial : string option;
  any : string list;
  final : string option;
}

type t =
  | Present of Attr.t
  | Eq of Attr.t * string
  | Ge of Attr.t * string
  | Le of Attr.t * string
  | Substr of Attr.t * substring
  | And of t list
  | Or of t list
  | Not of t

let class_eq c = Eq (Attr.object_class, Oclass.to_string c)

let norm = String.lowercase_ascii

(* -1 / 0 / +1 ordering used by Ge and Le: numeric when possible. *)
let order_cmp x y =
  match (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y)) with
  | Some a, Some b -> Int.compare a b
  | _ -> String.compare (norm x) (norm y)

let contains_from hay pos needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None
    else if String.sub hay i nn = needle then Some (i + nn)
    else go (i + 1)
  in
  if nn = 0 then Some pos else go pos

let substr_matches { initial; any; final } raw =
  let s = norm raw in
  let n = String.length s in
  let pos =
    match initial with
    | None -> Some 0
    | Some i ->
        let i = norm i in
        if String.length i <= n && String.sub s 0 (String.length i) = i then
          Some (String.length i)
        else None
  in
  let pos =
    List.fold_left
      (fun pos mid ->
        match pos with
        | None -> None
        | Some p -> contains_from s p (norm mid))
      pos any
  in
  match (pos, final) with
  | None, _ -> false
  | Some _, None -> true
  | Some p, Some f ->
      let f = norm f in
      let nf = String.length f in
      nf <= n - p && String.sub s (n - nf) nf = f

(* [Eq] and [Present] allocate nothing: [Eq] compares each value's
   rendering with the assertion in place, up to ASCII case, and tests
   [objectClass] on the class set (see {!Oclass.mem_caseless}). *)

let rec same_caseless a b i =
  i = String.length a
  || Char.lowercase_ascii (String.unsafe_get a i) = Char.lowercase_ascii (String.unsafe_get b i)
     && same_caseless a b (i + 1)

let eq_caseless a b = String.length a = String.length b && same_caseless a b 0

(* [string_of_int n = v], digit by digit from the end; [m] is [-|n|]
   still to match, kept non-positive so [min_int] needs no case. *)
let rec int_digits m v i first =
  i >= first
  && Char.code (String.unsafe_get v i) - 48 = -(m mod 10)
  && (m / 10 = 0 && i = first || m / 10 <> 0 && int_digits (m / 10) v (i - 1) first)

let int_is n v =
  if n < 0 then String.length v > 1 && v.[0] = '-' && int_digits n v (String.length v - 1) 1
  else int_digits (-n) v (String.length v - 1) 0

(* [norm (Value.to_string x) = norm v] *)
let value_is v = function
  | Value.String s | Value.Dn s -> eq_caseless s v
  | Value.Int n -> int_is n v
  | Value.Bool b -> eq_caseless (if b then "TRUE" else "FALSE") v

let rec any_value_is v = function [] -> false | x :: r -> value_is v x || any_value_is v r

let rec matches f e =
  match f with
  | Present a -> Entry.has_attr e a
  | Eq (a, v) ->
      if Attr.equal a Attr.object_class then Oclass.mem_caseless v (Entry.classes e)
      else any_value_is v (Entry.values e a)
  | Ge (a, v) ->
      List.exists (fun x -> order_cmp (Value.to_string x) v >= 0) (Entry.values e a)
  | Le (a, v) ->
      List.exists (fun x -> order_cmp (Value.to_string x) v <= 0) (Entry.values e a)
  | Substr (a, sub) ->
      List.exists (fun x -> substr_matches sub (Value.to_string x)) (Entry.values e a)
  | And fs -> all fs e
  | Or fs -> any fs e
  | Not f -> not (matches f e)

and all fs e = match fs with [] -> true | f :: r -> matches f e && all r e
and any fs e = match fs with [] -> false | f :: r -> matches f e || any r e

let rec size = function
  | Present _ | Eq _ | Ge _ | Le _ | Substr _ -> 1
  | And fs | Or fs -> 1 + List.fold_left (fun n f -> n + size f) 0 fs
  | Not f -> 1 + size f

(* RFC 2254 escaping: specials become a backslash and two hex digits, so
   the printed form survives a reparse byte-for-byte. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' | '*' | '\\' | '\000' ->
          Buffer.add_string buf (Printf.sprintf "\\%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | Present a -> Printf.sprintf "(%s=*)" (Attr.to_string a)
  | Eq (a, v) -> Printf.sprintf "(%s=%s)" (Attr.to_string a) (escape v)
  | Ge (a, v) -> Printf.sprintf "(%s>=%s)" (Attr.to_string a) (escape v)
  | Le (a, v) -> Printf.sprintf "(%s<=%s)" (Attr.to_string a) (escape v)
  | Substr (a, { initial; any; final }) ->
      let parts =
        (match initial with Some i -> escape i | None -> "")
        :: (List.map escape any @ [ (match final with Some f -> escape f | None -> "") ])
      in
      Printf.sprintf "(%s=%s)" (Attr.to_string a) (String.concat "*" parts)
  | And fs -> Printf.sprintf "(&%s)" (String.concat "" (List.map to_string fs))
  | Or fs -> Printf.sprintf "(|%s)" (String.concat "" (List.map to_string fs))
  | Not f -> Printf.sprintf "(!%s)" (to_string f)

let pp ppf f = Format.pp_print_string ppf (to_string f)

let rec equal f g =
  match (f, g) with
  | Present a, Present b -> Attr.equal a b
  | Eq (a, v), Eq (b, w) | Ge (a, v), Ge (b, w) | Le (a, v), Le (b, w) ->
      Attr.equal a b && String.equal v w
  | Substr (a, s1), Substr (b, s2) -> Attr.equal a b && s1 = s2
  | And fs, And gs | Or fs, Or gs ->
      List.length fs = List.length gs && List.for_all2 equal fs gs
  | Not f, Not g -> equal f g
  | (Present _ | Eq _ | Ge _ | Le _ | Substr _ | And _ | Or _ | Not _), _ -> false

let rec attributes = function
  | Present a | Eq (a, _) | Ge (a, _) | Le (a, _) | Substr (a, _) ->
      Attr.Set.singleton a
  | And fs | Or fs ->
      List.fold_left (fun s f -> Attr.Set.union s (attributes f)) Attr.Set.empty fs
  | Not f -> attributes f
