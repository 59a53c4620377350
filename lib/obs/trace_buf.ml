type phase = Span_begin | Span_end | Async_begin | Async_end | Instant | Counter

type event = {
  ev_time : int;
  ev_phase : phase;
  ev_cat : string;
  ev_name : string;
  ev_tid : int;
  ev_id : int;
  ev_arg : int;
  ev_ctx : int;
}

let nil_event =
  { ev_time = 0; ev_phase = Instant; ev_cat = ""; ev_name = ""; ev_tid = 0;
    ev_id = 0; ev_arg = 0; ev_ctx = 0 }

type t = {
  cap : int;
  ring : event array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let create ?(capacity = 16384) () =
  assert (capacity > 0);
  { cap = capacity; ring = Array.make capacity nil_event; head = 0; len = 0;
    dropped = 0 }

let record t ev =
  t.ring.(t.head) <- ev;
  t.head <- (t.head + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let length t = t.len
let dropped t = t.dropped

let iter t f =
  let start = (t.head - t.len + t.cap) mod t.cap in
  for i = 0 to t.len - 1 do
    f t.ring.((start + i) mod t.cap)
  done

let events t =
  let out = ref [] in
  iter t (fun ev -> out := ev :: !out);
  List.rev !out

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
