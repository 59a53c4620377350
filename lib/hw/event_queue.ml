(* Hierarchical time wheel.

   The queue holds (time, handler) pairs and must pop them in (time,
   insertion-seq) order — the tie-break every deterministic trace in
   this repo depends on.  The previous implementation was a Map keyed
   by (time, seq): O(log n) with a path of allocations per insert.
   This one files events into a 13-level x 32-slot wheel: level L slot
   S covers times whose bits [5L, 5L+5) equal S and whose bits above
   5(L+1) equal the cursor's.  13 levels x 5 bits = 65 bits, enough to
   cover the whole non-negative int range relative to any cursor, so
   there is no overflow list.

   Invariants (between operations):
   - every stored time is >= cur;
   - level-0 slots hold events of exactly one time each, in arrival
     order (FIFO), so equal-time pops replay insertion order;
   - for every level L >= 1, the slot at the cursor's own position is
     empty (see [settle]); therefore events at a level strictly
     precede all events at higher levels, and the earliest occupied
     slot of the lowest occupied level contains the global minimum.

   The cursor only advances inside [pop] — [next_time] is pure — so a
   caller may peek, stop, and later insert events at times between the
   peeked value and the last popped one (Machine.run's [until] does
   exactly this). *)

let bits = 5
let slot_count = 32
let levels = 13

type ev = { ev_time : int; ev_fn : unit -> unit }

(* Amortized FIFO for a level-0 slot: push prepends to [q_in], pop
   takes from [q_out], reversing [q_in] once when it drains. *)
type fifo = { mutable q_in : ev list; mutable q_out : ev list }

type t = {
  l0 : fifo array;  (* 32 single-time FIFO slots *)
  upper : ev list array array;  (* levels 1..12, prepend order; row 0 unused *)
  masks : int array;  (* per-level occupancy bitmask *)
  mutable cur : int;  (* time of the last popped event *)
  mutable count : int;
}

let create () =
  { l0 = Array.init slot_count (fun _ -> { q_in = []; q_out = [] });
    upper = Array.make_matrix levels slot_count [];
    masks = Array.make levels 0;
    cur = 0;
    count = 0 }

let is_empty t = t.count = 0

let high_bit_index x =
  let x = ref x and i = ref 0 in
  if !x lsr 32 <> 0 then (x := !x lsr 32; i := !i + 32);
  if !x lsr 16 <> 0 then (x := !x lsr 16; i := !i + 16);
  if !x lsr 8 <> 0 then (x := !x lsr 8; i := !i + 8);
  if !x lsr 4 <> 0 then (x := !x lsr 4; i := !i + 4);
  if !x lsr 2 <> 0 then (x := !x lsr 2; i := !i + 2);
  if !x lsr 1 <> 0 then incr i;
  !i

let lowest_bit_index m = high_bit_index (m land -m)

(* File an event at its level relative to the current cursor.  The
   level is the 5-bit field of the highest bit where time and cursor
   differ; equal times file at level 0.  A filed event never lands in
   an upper level's cursor slot: its field at the differing level is
   strictly greater than the cursor's. *)
let file t ev =
  let d = ev.ev_time lxor t.cur in
  let lvl = if d = 0 then 0 else high_bit_index d / bits in
  let slot = (ev.ev_time lsr (lvl * bits)) land (slot_count - 1) in
  if lvl = 0 then begin
    let q = t.l0.(slot) in
    q.q_in <- ev :: q.q_in
  end
  else t.upper.(lvl).(slot) <- ev :: t.upper.(lvl).(slot);
  t.masks.(lvl) <- t.masks.(lvl) lor (1 lsl slot)

(* Restore the invariant that no upper level holds events in the slot
   the cursor currently points at, by refiling such events one level
   (or more) down.  Must run after every cursor advance that changes a
   field at level >= 1.  Top-down, so an event refiled from level L
   lands at its final level in one pass; refiled lists are reversed so
   equal-time events keep their relative (insertion) order. *)
let settle t =
  for lvl = levels - 1 downto 1 do
    if t.masks.(lvl) <> 0 then begin
      let pos = (t.cur lsr (lvl * bits)) land (slot_count - 1) in
      if t.masks.(lvl) land (1 lsl pos) <> 0 then begin
        let evs = t.upper.(lvl).(pos) in
        t.upper.(lvl).(pos) <- [];
        t.masks.(lvl) <- t.masks.(lvl) land lnot (1 lsl pos);
        List.iter (file t) (List.rev evs)
      end
    end
  done

let add t ~time fn =
  if time < t.cur then
    invalid_arg "Event_queue.add: time precedes an already-popped event";
  file t { ev_time = time; ev_fn = fn };
  t.count <- t.count + 1

let rec lowest_level t lvl =
  if t.masks.(lvl) <> 0 then lvl else lowest_level t (lvl + 1)

let next_time t =
  if t.count = 0 then None
  else begin
    let lvl = lowest_level t 0 in
    let slot = lowest_bit_index t.masks.(lvl) in
    if lvl = 0 then Some ((t.cur land lnot (slot_count - 1)) lor slot)
    else
      Some
        (List.fold_left
           (fun acc ev -> if ev.ev_time < acc then ev.ev_time else acc)
           max_int t.upper.(lvl).(slot))
  end

let rec pop t =
  if t.count = 0 then None
  else if t.masks.(0) <> 0 then begin
    let slot = lowest_bit_index t.masks.(0) in
    let q = t.l0.(slot) in
    (match q.q_out with
    | [] ->
        q.q_out <- List.rev q.q_in;
        q.q_in <- []
    | _ -> ());
    match q.q_out with
    | [] -> assert false
    | ev :: rest ->
        q.q_out <- rest;
        if rest == [] && q.q_in == [] then
          t.masks.(0) <- t.masks.(0) land lnot (1 lsl slot);
        (* Same 32-tick window as the cursor, so only field 0 moves:
           no upper-level slot becomes the cursor slot, no settle. *)
        t.cur <- ev.ev_time;
        t.count <- t.count - 1;
        Some (ev.ev_time, ev.ev_fn)
  end
  else begin
    let lvl = lowest_level t 1 in
    let slot = lowest_bit_index t.masks.(lvl) in
    (* Invariant: slot > cursor position at this level.  Jump the
       cursor to the slot's first instant (zeroing all lower fields),
       then settle: the slot we jumped into cascades one level down,
       and within a bounded number of rounds the minimum reaches
       level 0. *)
    let below =
      if lvl >= levels - 1 then max_int else (1 lsl ((lvl + 1) * bits)) - 1
    in
    t.cur <- t.cur land lnot below lor (slot lsl (lvl * bits));
    settle t;
    pop t
  end
