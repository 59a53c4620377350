type hashed = { salt : string; digest : int }

let iterations = 64

let fnv_basis = 0x3f29ce484222325
let step h byte = (h lxor byte) * 0x100000001b3 land max_int

let rec fold_from s i h =
  if i = String.length s then h
  else fold_from s (i + 1) (step h (Char.code (String.unsafe_get s i)))

(* The decimal digits of [n], most significant first, as
   [string_of_int] would spell them.  A digest is masked to
   [max_int], so it is never negative. *)
let rec fold_digits h n =
  if n < 10 then step h (48 + n)
  else step (fold_digits h (n / 10)) (48 + (n mod 10))

(* Each round is FNV-1a over [salt ^ string_of_int digest ^ password],
   folded in place: the state after the salt is the same every round,
   so it is folded once, and no round builds a string. *)
let hash ~salt password =
  let after_salt = fold_from salt 0 fnv_basis in
  let rec iterate digest n =
    if n = 0 then digest
    else iterate (fold_from password 0 (fold_digits after_salt digest)) (n - 1)
  in
  { salt; digest = iterate (fold_from password 0 after_salt) iterations }

let verify hashed password = (hash ~salt:hashed.salt password).digest = hashed.digest
let to_string h = Printf.sprintf "%s$%x" h.salt h.digest
