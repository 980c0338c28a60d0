(* Sample summaries and the result line.

   Percentiles follow the nearest-rank definition and the reporting rule
   of this benchmark: a percentile is reported only when at least
   [beyond] samples lie strictly above its rank, so a p99 needs 1000
   samples and a p50 needs 20.  Percentiles are given in per-mille so
   the rank arithmetic stays in integers. *)

let beyond = 10

(* 1-based nearest rank of the [pm]-per-mille percentile among [n]. *)
let rank ~pm n = ((pm * n) + 999) / 1000

let samples_beyond ~pm n = n - rank ~pm n

(* Fewest samples for which the [pm] percentile may be reported. *)
let min_samples ~pm =
  let rec go n = if samples_beyond ~pm n >= beyond then n else go (n + 1) in
  go 1

(* [percentile ~pm sorted] — [sorted] ascending; [Error] names the
   shortfall when the reporting rule does not hold. *)
let percentile ~pm sorted =
  let n = Array.length sorted in
  if samples_beyond ~pm n < beyond then
    Error
      (Printf.sprintf "p%g needs %d samples, have %d"
         (float_of_int pm /. 10.)
         (min_samples ~pm) n)
  else Ok sorted.(rank ~pm n - 1)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  match Array.length a with
  | 0 -> invalid_arg "Stats.median: no samples"
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- the result line ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

(* Shortest decimal that reads back as the same double: every digit as
   measured, and valid JSON (no nan/inf may reach here). *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go prec =
      let s = Printf.sprintf "%.*g" prec f in
      if prec >= 17 || float_of_string s = f then s else go (prec + 1)
    in
    go 1

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        invalid_arg ("Stats.result_line: non-finite " ^ m.name))
    metrics;
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
