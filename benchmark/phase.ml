(* The measured phase: host time and allocation around the part of a
   workload that end-to-end throughput is computed over.  Set-up before
   it and correctness checks after it are outside.

   Workloads call [mark] as their operations finish (or, where they
   cannot see that, at regular points of progress); the harness then
   reads throughput over windows of marks instead of over the whole
   phase. *)

type t = {
  host_ns : int;
  marks : (int * int) array;  (** host instant, operations since the last mark *)
  alloc_words : float;  (** words allocated on the minor and major heaps *)
  major_collections : int;
}

let last : t option ref = ref None
let marks = ref [||]
let n_marks = ref 0

let mark ?(ops = 1) () =
  if !n_marks = Array.length !marks then begin
    let grown = Array.make (max 1024 (2 * !n_marks)) (0, 0) in
    Array.blit !marks 0 grown 0 !n_marks;
    marks := grown
  end;
  !marks.(!n_marks) <- (Trace.now_ns (), ops);
  incr n_marks

let allocated (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let measure f =
  (* Start from a collected heap, so garbage left by set-up is not
     charged to the operations. *)
  Gc.full_major ();
  n_marks := 0;
  let g0 = Gc.quick_stat () in
  let t0 = Trace.now_ns () in
  let v = Trace.with_span "measure" f in
  let t1 = Trace.now_ns () in
  let g1 = Gc.quick_stat () in
  last :=
    Some
      { host_ns = t1 - t0;
        marks = Array.sub !marks 0 !n_marks;
        alloc_words = allocated g1 -. allocated g0;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections };
  v

let take () =
  match !last with
  | Some p ->
      last := None;
      p
  | None -> invalid_arg "Phase.take: the workload measured nothing"

(* Operations per host second in each of [windows] consecutive windows
   of equal mark count; empty when there are too few marks.  Marks
   taken on several machines of a cluster interleave, so they are put
   in host-time order first. *)
let window_rates ?(windows = 50) p =
  let marks = Array.copy p.marks in
  Array.sort compare marks;
  let n = Array.length marks in
  let w = n / windows in
  if w < 2 then []
  else
    List.init windows (fun i ->
        let first = i * w and last = ((i + 1) * w) - 1 in
        let ops = ref 0 in
        for j = first + 1 to last do
          ops := !ops + snd marks.(j)
        done;
        float_of_int !ops
        /. (float_of_int (max 1 (fst marks.(last) - fst marks.(first))) /. 1e9))
