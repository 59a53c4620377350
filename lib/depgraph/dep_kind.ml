type t =
  | Component
  | Map
  | Program
  | Address_space
  | Interpreter
  | Explicit_call
  | Shared_data

let all =
  [ Component; Map; Program; Address_space; Interpreter; Explicit_call;
    Shared_data ]

let proper = function
  | Component | Map | Program | Address_space | Interpreter -> true
  | Explicit_call | Shared_data -> false

let to_string = function
  | Component -> "component"
  | Map -> "map"
  | Program -> "program"
  | Address_space -> "address-space"
  | Interpreter -> "interpreter"
  | Explicit_call -> "explicit-call"
  | Shared_data -> "shared-data"

let short = function
  | Component -> "C"
  | Map -> "M"
  | Program -> "P"
  | Address_space -> "A"
  | Interpreter -> "I"
  | Explicit_call -> "X"
  | Shared_data -> "S"

let compare = Stdlib.compare
