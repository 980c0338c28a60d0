type failure = { case : Case.t; message : string }
type report = { oracle : string; budget : int; failures : failure list }

(* Independent PRNG per (oracle, seed, index): a failing case replays from
   the seed alone, whatever the budget or oracle selection around it. *)
let case_rng ~seed ~name ~index =
  Random.State.make [| seed; Hashtbl.hash name; index |]

let run_oracle ?(max_failures = 3) ?(log = ignore) ~budget ~seed (o : Oracle.t) =
  let failures = ref [] in
  let n_failures = ref 0 in
  for index = 0 to budget - 1 do
    let rng = case_rng ~seed ~name:o.name ~index in
    let case = o.generate ~seed:index rng in
    match o.check case with
    | Agree -> ()
    | Disagree first_message ->
        incr n_failures;
        if !n_failures <= max_failures then begin
          let shrunk =
            Shrink.minimize ~still_fails:(Oracle.disagrees o) case
          in
          let message =
            match o.check shrunk with
            | Disagree m -> m
            | Agree -> first_message (* flaky check: report the original *)
          in
          let fresh =
            not (List.exists (fun f -> Case.equal f.case shrunk) !failures)
          in
          if fresh then begin
            log
              (Printf.sprintf "%s: case %d disagrees (%d -> %d after shrink): %s"
                 o.name index (Case.size case) (Case.size shrunk) message);
            failures := { case = shrunk; message } :: !failures
          end
        end
  done;
  { oracle = o.name; budget; failures = List.rev !failures }

let run ?oracles ?max_failures ?log ~budget ~seed () =
  let selected =
    match oracles with
    | None -> Ok Oracle.all
    | Some names ->
        List.fold_left
          (fun acc n ->
            match (acc, Oracle.find n) with
            | Error _, _ -> acc
            | Ok _, None ->
                Error
                  (Printf.sprintf "unknown oracle %S (known: %s)" n
                     (String.concat ", " Oracle.names))
            | Ok l, Some o -> Ok (o :: l))
          (Ok []) names
        |> Result.map List.rev
  in
  match selected with
  | Error _ as e -> e
  | Ok selected ->
      Ok (List.map (run_oracle ?max_failures ?log ~budget ~seed) selected)

let total_failures reports =
  List.fold_left (fun n r -> n + List.length r.failures) 0 reports

(* --- regression corpus --------------------------------------------------- *)

let save_case ~dir (case : Case.t) =
  let body = Case.to_string case in
  let name = Printf.sprintf "%s-%04x.case" case.oracle (Hashtbl.hash body land 0xffff) in
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc;
  path

let load_corpus ~dir =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | names ->
      let names =
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".case")
        |> List.sort compare
      in
      List.fold_left
        (fun acc name ->
          match acc with
          | Error _ -> acc
          | Ok cases -> (
              let path = Filename.concat dir name in
              let ic = open_in_bin path in
              let len = in_channel_length ic in
              let body = really_input_string ic len in
              close_in ic;
              match Case.of_string body with
              | Ok case -> Ok ((name, case) :: cases)
              | Error m -> Error (Printf.sprintf "%s: %s" name m)))
        (Ok []) names
      |> Result.map List.rev

let replay (case : Case.t) =
  match Oracle.find case.oracle with
  | None -> Error (Printf.sprintf "unknown oracle %S" case.oracle)
  | Some o -> Ok (o.check case)
