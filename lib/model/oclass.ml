type t = string

let valid_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
  | _ -> false

let normalize s = String.lowercase_ascii (String.trim s)

let of_string_opt s =
  let s = normalize s in
  if s = "" then None
  else if String.for_all valid_char s then Some (Intern.share Intern.oclass s)
  else None

let of_string s =
  match of_string_opt s with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Oclass.of_string: invalid class name %S" s)

let to_string c = c
let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp ppf c = Format.pp_print_string ppf c

let top = "top"

module Set = Set.Make (String)
module Map = Map.Make (String)

let is_capital c = 'A' <= c && c <= 'Z'

(* [c = String.lowercase_ascii s] from byte [i], for a lowercase [c] as
   long as [s]. *)
let rec lowers_to c s i =
  i = String.length c
  || String.unsafe_get c i = Char.lowercase_ascii (String.unsafe_get s i)
     && lowers_to c s (i + 1)

(* Classes are lowercase, so a needle without capitals is looked up as
   it is, and one with capitals is compared with each class in place. *)
let mem_caseless s set =
  if String.exists is_capital s then
    Set.exists (fun c -> String.length c = String.length s && lowers_to c s 0) set
  else Set.mem s set

let set_of_list names = Set.of_list (List.map of_string names)

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp)
    (Set.elements s)
