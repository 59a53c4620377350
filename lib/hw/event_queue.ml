(* Binary min-heap over (time, insertion seq).

   The queue must pop events in (time, insertion-seq) order — the
   tie-break every deterministic trace in this repo depends on.  The
   heap keeps each event's time, seq and handler in three parallel
   arrays, so an add allocates nothing until the arrays are full, and
   then they double.  Slot 0 holds the earliest event, so [next_time]
   reads it in place.

   The seq only grows, so a new event is later than every stored event
   of the same time: sifting it up compares times alone. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable size : int;
  mutable seq : int;  (* the next event's insertion seq *)
  mutable cur : int;  (* time of the last popped event *)
}

let idle () = ()
let initial_capacity = 64

let create () =
  { times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    fns = Array.make initial_capacity idle;
    size = 0; seq = 0; cur = 0 }

let is_empty t = t.size = 0
let next_time t = if t.size = 0 then None else Some t.times.(0)

let grow t =
  let n = Array.length t.times in
  let double a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- double t.times 0;
  t.seqs <- double t.seqs 0;
  t.fns <- double t.fns idle

let place t i time seq fn =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fns.(i) <- fn

let move t ~src ~dst = place t dst t.times.(src) t.seqs.(src) t.fns.(src)

(* Move later parents down into the hole at [i]; return where the new
   event of [time] belongs. *)
let rec sift_up t i time =
  let parent = (i - 1) / 2 in
  if i > 0 && t.times.(parent) > time then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time
  end
  else i

let add t ~time fn =
  if time < t.cur then
    invalid_arg "Event_queue.add: time precedes an already-popped event";
  if t.size = Array.length t.times then grow t;
  place t (sift_up t t.size time) time t.seq fn;
  t.size <- t.size + 1;
  t.seq <- t.seq + 1

(* Slot [i] pops before the event ([time], [seq]). *)
let earlier t i ~time ~seq =
  t.times.(i) < time || (t.times.(i) = time && t.seqs.(i) < seq)

(* Move earlier children up into the hole at [i], among the first
   [size] slots; return where the event ([time], [seq]) belongs. *)
let rec sift_down t i ~size ~time ~seq =
  let l = (2 * i) + 1 in
  if l >= size then i
  else begin
    let c =
      if l + 1 < size && earlier t (l + 1) ~time:t.times.(l) ~seq:t.seqs.(l)
      then l + 1
      else l
    in
    if earlier t c ~time ~seq then begin
      move t ~src:c ~dst:i;
      sift_down t c ~size ~time ~seq
    end
    else i
  end

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and fn = t.fns.(0) in
    let last = t.size - 1 in
    t.size <- last;
    (* Refill the root's hole with the last event; clear the vacated
       slot so the heap holds no popped handler. *)
    let lt = t.times.(last) and ls = t.seqs.(last) and lf = t.fns.(last) in
    t.fns.(last) <- idle;
    if last > 0 then
      place t (sift_down t 0 ~size:last ~time:lt ~seq:ls) lt ls lf;
    t.cur <- time;
    Some (time, fn)
  end
