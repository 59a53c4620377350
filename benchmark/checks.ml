(* End-of-run correctness checks for a single kernel: the invariant
   oracle at quiescence, no access denied to any workload action, and
   an orderly shutdown. *)

module K = Multics_kernel

let single_kernel k =
  let oracle = Multics_check.Oracle.check k in
  let denials =
    match K.Kernel.denials k with
    | 0 -> []
    | n -> [ Printf.sprintf "%d workload actions were denied access" n ]
  in
  let shutdown =
    match K.Kernel.shutdown k with
    | () -> []
    | exception Failure msg -> [ "shutdown failed: " ^ msg ]
  in
  oracle @ denials @ shutdown
