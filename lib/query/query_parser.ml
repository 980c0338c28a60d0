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

(* Reads the word after '(' without consuming it, to decide between a
   structured query form and a bare filter. *)
let lookahead_word st =
  let p = ref st.pos in
  let buf = Buffer.create 8 in
  let continue = ref true in
  while !continue && !p < String.length st.src do
    match st.src.[!p] with
    | 'a' .. 'z' | 'A' .. 'Z' -> Buffer.add_char buf st.src.[!p]; incr p
    | _ -> continue := false
  done;
  String.lowercase_ascii (Buffer.contents buf)

let read_word st =
  skip_ws st;
  let start = st.pos in
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected a keyword";
  String.lowercase_ascii (String.sub st.src start (st.pos - start))

let read_quoted st =
  skip_ws st;
  match peek st with
  | Some '"' ->
      st.pos <- st.pos + 1;
      let buf = Buffer.create 32 in
      let rec go () =
        match peek st with
        | None -> error st "unterminated string"
        | Some '"' -> st.pos <- st.pos + 1
        | Some '\\' ->
            (* the printer quotes with OCaml's %S: decode its escapes *)
            st.pos <- st.pos + 1;
            (match peek st with
            | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1
            | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1
            | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1
            | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1
            | Some ('0' .. '9') when st.pos + 2 < String.length st.src ->
                let digit i =
                  match st.src.[i] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | _ -> error st "expected three decimal digits after backslash"
                in
                let code =
                  (100 * digit st.pos) + (10 * digit (st.pos + 1)) + digit (st.pos + 2)
                in
                if code > 255 then error st "escape \\%d out of byte range" code;
                Buffer.add_char buf (Char.chr code);
                st.pos <- st.pos + 3
            | Some c ->
                Buffer.add_char buf c;
                st.pos <- st.pos + 1
            | None -> error st "dangling backslash");
            go ()
        | Some c ->
            Buffer.add_char buf c;
            st.pos <- st.pos + 1;
            go ()
      in
      go ();
      Buffer.contents buf
  | _ -> error st "expected a quoted filter string"

(* Consumes a balanced-parenthesis span starting at the current '(' and
   returns it verbatim (used for bare-filter shorthand). *)
let read_balanced st =
  skip_ws st;
  let start = st.pos in
  (match peek st with Some '(' -> () | _ -> error st "expected '('");
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    (match peek st with
    | None -> error st "unbalanced parentheses"
    | Some '(' -> incr depth
    | Some ')' -> decr depth
    | Some _ -> ());
    st.pos <- st.pos + 1;
    if !depth = 0 then continue := false
  done;
  String.sub st.src start (st.pos - start)

let parse_filter_string st s =
  match Filter_parser.parse s with
  | Ok f -> f
  | Error e -> error st "bad filter %S: %s" s (Parse_error.to_string e)

let rec parse_query st =
  skip_ws st;
  (match peek st with Some '(' -> () | _ -> error st "expected '('");
  let save = st.pos in
  st.pos <- st.pos + 1;
  skip_ws st;
  match lookahead_word st with
  | "select" ->
      let _ = read_word st in
      skip_ws st;
      let f =
        match peek st with
        | Some '"' -> parse_filter_string st (read_quoted st)
        | Some '(' -> parse_filter_string st (read_balanced st)
        | _ -> error st "expected a filter after 'select'"
      in
      expect st ')';
      Query.Select f
  | "minus" ->
      let _ = read_word st in
      let a = parse_query st in
      let b = parse_query st in
      expect st ')';
      Query.Minus (a, b)
  | "union" ->
      let _ = read_word st in
      let a = parse_query st in
      let b = parse_query st in
      expect st ')';
      Query.Union (a, b)
  | "inter" ->
      let _ = read_word st in
      let a = parse_query st in
      let b = parse_query st in
      expect st ')';
      Query.Inter (a, b)
  | "chi" ->
      let _ = read_word st in
      let ax_word = read_word st in
      let ax =
        match Query.axis_of_string ax_word with
        | Ok ax -> ax
        | Error m -> error st "%s" m
      in
      let a = parse_query st in
      let b = parse_query st in
      expect st ')';
      Query.Chi (ax, a, b)
  | _ ->
      (* bare filter shorthand *)
      st.pos <- save;
      let f = parse_filter_string st (read_balanced st) in
      Query.Select f

let parse s =
  let st = { src = s; pos = 0 } in
  try
    let q = parse_query st in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Parse_error.make ~pos:st.pos "trailing input")
    else Ok q
  with Err e -> Error e

let parse_exn s =
  match parse s with Ok q -> q | Error e -> failwith (Parse_error.to_string e)
