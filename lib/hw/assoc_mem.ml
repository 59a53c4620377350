type entry = { e_segno : int; e_sdw : Sdw.t }

type t = {
  mutable slots : entry option array;
  mutable next : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(size = 16) () =
  { slots = Array.make (max size 1) None; next = 0;
    hits = 0; misses = 0; flushes = 0 }

let entries t =
  Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.slots

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- 0;
  t.flushes <- t.flushes + 1

(* Changing the capacity discards the contents: the registers of a real
   associative memory cannot be resized, so this only happens when a
   bench or test reconfigures the machine between runs. *)
let resize t n =
  let n = max n 1 in
  if n <> Array.length t.slots then begin
    t.slots <- Array.make n None;
    t.next <- 0;
    t.flushes <- t.flushes + 1
  end

(* The probe returns the array's own slot, so a hit shares the stored
   [Some] cell instead of boxing a fresh option per reference — the
   translation hot path allocates nothing on an AM hit. *)
let probe t ~segno =
  let n = Array.length t.slots in
  let rec scan i =
    if i >= n then begin
      t.misses <- t.misses + 1;
      None
    end
    else
      match t.slots.(i) with
      | Some e when e.e_segno = segno ->
          t.hits <- t.hits + 1;
          t.slots.(i)
      | _ -> scan (i + 1)
  in
  scan 0

let lookup t ~segno =
  match probe t ~segno with Some e -> Some e.e_sdw | None -> None

(* Deterministic round-robin replacement, like the 6180's usage
   counters but simpler: same insertion order gives the same victim. *)
let insert t ~segno ~sdw =
  let existing = ref None in
  Array.iteri
    (fun i -> function
      | Some e when e.e_segno = segno -> existing := Some i
      | _ -> ())
    t.slots;
  let slot =
    match !existing with
    | Some i -> i
    | None ->
        let i = t.next in
        t.next <- (t.next + 1) mod Array.length t.slots;
        i
  in
  t.slots.(slot) <- Some { e_segno = segno; e_sdw = sdw }

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
