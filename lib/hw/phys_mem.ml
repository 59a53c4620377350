type t = {
  data : int array;
  n_frames : int;
  mutable reads : int;
  mutable writes : int;
}

let create ~frames =
  assert (frames > 0);
  { data = Array.make (frames * Addr.page_size) 0; n_frames = frames;
    reads = 0; writes = 0 }

let frames t = t.n_frames
let words t = Array.length t.data

let read t a =
  if a < 0 || a >= Array.length t.data then
    invalid_arg (Printf.sprintf "Phys_mem.read: address %d out of range" a);
  t.reads <- t.reads + 1;
  t.data.(a)

let write t a w =
  if a < 0 || a >= Array.length t.data then
    invalid_arg (Printf.sprintf "Phys_mem.write: address %d out of range" a);
  t.writes <- t.writes + 1;
  t.data.(a) <- Word.of_int w

let read_frame t n =
  assert (n >= 0 && n < t.n_frames);
  Page_image.sub t.data ~pos:(Addr.frame_base n)

let write_frame t n img =
  assert (n >= 0 && n < t.n_frames);
  Page_image.blit img t.data ~pos:(Addr.frame_base n)

let zero_frame t n =
  assert (n >= 0 && n < t.n_frames);
  Array.fill t.data (Addr.frame_base n) Addr.page_size 0

let frame_is_zero t n =
  assert (n >= 0 && n < t.n_frames);
  let base = Addr.frame_base n in
  let rec loop i = i >= Addr.page_size || (t.data.(base + i) = 0 && loop (i + 1)) in
  loop 0

let reads t = t.reads
let writes t = t.writes
