open Bounds_model

type result =
  | Accepted of { lsn : int option; ops : Update.op list }
  | Rejected of { reason : Monitor.rejection; ops : Update.op list }

let accepted = function Accepted _ -> true | Rejected _ -> false
let lsn = function Accepted { lsn; _ } -> lsn | Rejected _ -> None

let with_lsn l = function
  | Accepted a -> Accepted { a with lsn = Some l }
  | Rejected _ as r -> r
