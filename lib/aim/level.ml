type t = int

let bottom = 0

let of_int i =
  if i < 0 || i > 7 then invalid_arg "Level.of_int: levels are 0..7" else i

let to_int t = t
let secret = 2
let compare = Stdlib.compare
let max_level = max
let min_level = min

let to_string = function
  | 0 -> "unclassified"
  | 1 -> "confidential"
  | 2 -> "secret"
  | 3 -> "top-secret"
  | n -> Printf.sprintf "level-%d" n

let pp ppf t = Format.pp_print_string ppf (to_string t)
