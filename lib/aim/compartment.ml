type t = int

let empty = 0
let max_compartments = 18

let check i =
  if i < 0 || i >= max_compartments then
    invalid_arg "Compartment: index out of range"

let add t i = check i; t lor (1 lsl i)
let of_list l = List.fold_left add empty l

let to_list t =
  List.filter (fun i -> t land (1 lsl i) <> 0)
    (List.init max_compartments (fun i -> i))

let union = ( lor )
let inter = ( land )
let subset a b = a land b = a
let equal = ( = )
let to_int t = t
let of_int i = i land ((1 lsl max_compartments) - 1)

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (to_list t)))
