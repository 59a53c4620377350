(* Words are immediate ints, so the loops below store without a write
   barrier; [Array.sub]/[Array.blit]/[Array.copy] are polymorphic and
   pay one per word on a major-heap page. *)
type t = int array

let size = Addr.page_size

(* Allocated on first use, not at program start: an eager 8 KB block
   moved the benchmark's peak-heap reading on [explore], which never
   reads an unwritten record, by 0.7 MB through major-GC pacing (see
   DESIGN 3k).  Domains racing on first use may each build one; they
   are equal and immutable, so either will do. *)
let zero_page : t option Atomic.t = Atomic.make None

let zero () =
  match Atomic.get zero_page with
  | Some z -> z
  | None ->
      let z = Array.make size 0 in
      Atomic.set zero_page (Some z);
      z

let sub (src : int array) ~pos : t =
  assert (pos >= 0 && pos + size <= Array.length src);
  let img = Array.make size 0 in
  for i = 0 to size - 1 do
    Array.unsafe_set img i (Array.unsafe_get src (pos + i))
  done;
  img

let blit (img : t) (dst : int array) ~pos =
  assert (pos >= 0 && pos + size <= Array.length dst);
  for i = 0 to size - 1 do
    Array.unsafe_set dst (pos + i) (Array.unsafe_get img i)
  done

let of_words words =
  assert (Array.length words = size);
  sub words ~pos:0

let to_words img =
  let words = Array.make size 0 in
  blit img words ~pos:0;
  words

let get (img : t) i = img.(i)
let iter f (img : t) = Array.iter f img

let equal (a : t) (b : t) =
  a == b
  ||
  let rec loop i = i >= size || (a.(i) = b.(i) && loop (i + 1)) in
  loop 0
