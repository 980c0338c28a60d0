open Bounds_model

exception Err of Parse_error.t

type state = { src : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf (fun m -> raise (Err (Parse_error.make ~pos:st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> error st "expected %c, found %c" c c'
  | None -> error st "expected %c, found end of input" c

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* A pattern is the text between '=' and ')'; '*' splits substring
   components.  Escapes follow RFC 2254: a backslash names a byte by two
   hex digits ([\2a] is '*').  A backslash before a non-hex-pair still
   escapes that single character, for compatibility with the pre-RFC
   form. Returns the components with a flag marking where stars were. *)
let read_pattern st =
  let buf = Buffer.create 16 in
  let parts = ref [] in
  let rec go () =
    match peek st with
    | None -> error st "unterminated filter (missing ')')"
    | Some ')' ->
        parts := Buffer.contents buf :: !parts;
        List.rev !parts
    | Some '*' ->
        st.pos <- st.pos + 1;
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf;
        go ()
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | None -> error st "dangling backslash"
        | Some c1 ->
            let hex =
              if st.pos + 1 < String.length st.src then
                match (hex_digit c1, hex_digit st.src.[st.pos + 1]) with
                | Some h, Some l -> Some (Char.chr ((h lsl 4) lor l))
                | _ -> None
              else None
            in
            (match hex with
            | Some byte ->
                Buffer.add_char buf byte;
                st.pos <- st.pos + 2
            | None ->
                Buffer.add_char buf c1;
                st.pos <- st.pos + 1));
        go ()
    | Some '(' -> error st "unescaped '(' in value"
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ()

let read_attr st =
  skip_ws st;
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | ';' | '.') ->
        st.pos <- st.pos + 1;
        go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then error st "expected attribute name";
  match Attr.of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some a -> a
  | None -> error st "invalid attribute name"

let rec parse_filter st =
  expect st '(';
  skip_ws st;
  let f =
    match peek st with
    | Some '&' ->
        st.pos <- st.pos + 1;
        Filter.And (parse_list st)
    | Some '|' ->
        st.pos <- st.pos + 1;
        Filter.Or (parse_list st)
    | Some '!' ->
        st.pos <- st.pos + 1;
        Filter.Not (parse_filter st)
    | Some _ -> parse_simple st
    | None -> error st "unexpected end of input"
  in
  expect st ')';
  f

and parse_list st =
  skip_ws st;
  match peek st with
  | Some '(' ->
      let f = parse_filter st in
      f :: parse_list st
  | _ -> []

and parse_simple st =
  let attr = read_attr st in
  skip_ws st;
  match peek st with
  | Some '>' ->
      st.pos <- st.pos + 1;
      expect st '=';
      (match read_pattern st with
      | [ v ] -> Filter.Ge (attr, v)
      | _ -> error st "'*' not allowed in ordering assertions")
  | Some '<' ->
      st.pos <- st.pos + 1;
      expect st '=';
      (match read_pattern st with
      | [ v ] -> Filter.Le (attr, v)
      | _ -> error st "'*' not allowed in ordering assertions")
  | Some '=' -> (
      st.pos <- st.pos + 1;
      match read_pattern st with
      | [ v ] -> Filter.Eq (attr, v)
      | parts ->
          (* first part is initial (may be empty), last is final *)
          let rec split_last = function
            | [] -> assert false
            | [ x ] -> ([], x)
            | x :: rest ->
                let mid, last = split_last rest in
                (x :: mid, last)
          in
          let initial, rest =
            match parts with
            | "" :: rest -> (None, rest)
            | i :: rest -> (Some i, rest)
            | [] -> assert false
          in
          let any, final = split_last rest in
          let final = if final = "" then None else Some final in
          let any = List.filter (fun s -> s <> "") any in
          match (initial, any, final) with
          | None, [], None ->
              (* all components empty — one or more bare stars assert no
                 substring constraint at all, i.e. plain presence; the
                 degenerate Substr node would be unprintable *)
              Filter.Present attr
          | _ -> Filter.Substr (attr, { initial; any; final }))
  | _ -> error st "expected '=', '>=' or '<='"

let parse s =
  let st = { src = s; pos = 0 } in
  try
    let f = parse_filter st in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Parse_error.make ~pos:st.pos "trailing input")
    else Ok f
  with Err e -> Error e

let parse_exn s =
  match parse s with Ok f -> f | Error e -> failwith (Parse_error.to_string e)
