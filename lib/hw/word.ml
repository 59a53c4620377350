type t = int

let width = 36
let mask = (1 lsl width) - 1
let zero = 0
let of_int v = v land mask
let is_zero v = v = 0
let add a b = (a + b) land mask

let extract w ~pos ~len =
  assert (pos >= 0 && len > 0 && pos + len <= width);
  (w lsr pos) land ((1 lsl len) - 1)

let insert w ~pos ~len v =
  assert (pos >= 0 && len > 0 && pos + len <= width);
  let field_mask = ((1 lsl len) - 1) lsl pos in
  w land lnot field_mask lor ((v lsl pos) land field_mask)

let bit w i = (w lsr i) land 1 = 1
let set_bit w i b = if b then w lor (1 lsl i) else w land lnot (1 lsl i)
let pp ppf w = Format.fprintf ppf "%012o" w
