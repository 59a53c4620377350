type t = { mutable next : int }

let create () = { next = 1 }

let ticket t =
  let n = t.next in
  t.next <- n + 1;
  n

let issued t = t.next - 1
