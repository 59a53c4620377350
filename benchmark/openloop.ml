(* Open-loop load on one kernel: arrivals on a seeded schedule,
   whatever the system's state, each timed from its due instant.

   Arrival [i] is scheduled from arrival [i-1]'s event, so the event
   queue holds one pending arrival at a time instead of the whole
   stream.  An arrival that finds every process slot taken waits in a
   first-come queue at the front door and starts when a process ends;
   its latency still counts from the instant it was due, so a stall
   shows up in the latency of everything queued behind it.  [run]
   steps the event loop itself, one [Machine.step] at a time, which is
   how it sees the instant each process reaches [P_done].

   The workloads draw their arrival instants from a timetable stream
   that is the same for every seed, and what each arrival does from
   the seeded stream.  The slowest percent of a Poisson stream's
   operations come from its few worst bursts, so with seeded instants
   the 99th percentile of [timesharing] moved by 10.5% from seed to
   seed (and the median by 4.5%); with one timetable and the seed
   drawing the rest, by 1.2% (and 0.5%).  So a latency bound of a few
   percent can be held across seeds. *)

module K = Multics_kernel
module Hw = Multics_hw

type arrival = {
  gap_ns : int;  (** since the previous arrival's due instant *)
  what : string;  (** describes the arrival, for the stream digest *)
  launch : unit -> (int, string) result;  (** start it; the pid *)
  finish : int -> unit;  (** called with the pid once it is done *)
}

(* The gap before the next arrival of a Poisson stream with the given
   mean: exponential, drawn from a seeded stream. *)
let poisson_gap rng mean =
  int_of_float (-.mean *. log (1.0 -. Random.State.float rng 1.0))

(* Shuffle [a] in place from a seeded stream. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v
  done

type result = {
  r_attempted : int;
  r_completed : int;
  r_failed : int;  (** launch errors + processes that ended [P_failed] *)
  r_lateness_ns : int;
  r_latencies : int list;
  r_arrivals : string;
}

(* [next i] draws arrival [i]; it is called in order, from inside the
   previous arrival's event, so a seeded generator stays deterministic.
   [launch_span] names the trace span around each launch. *)
let run k ~n ~launch_span ~(next : int -> arrival) =
  let m = K.Kernel.machine k in
  let up = K.Kernel.user_process k in
  let max_live = (K.Kernel.config k).K.Kernel.max_processes in
  (* pid -> (op, due, finish) for processes still running *)
  let live = Hashtbl.create 32 in
  let waiting = Queue.create () in
  let failed = ref 0 and completed = ref 0 and lateness = ref 0 in
  let latencies = ref [] in
  let stream = Buffer.create (32 * n) in
  let admit (op, due, a) =
    match Trace.with_span ~op launch_span a.launch with
    | Ok pid -> Hashtbl.replace live pid (op, due, a.finish)
    | Error _ -> incr failed
  in
  let rec arrive i due a () =
    lateness := max !lateness (Hw.Machine.now m - due);
    if Hashtbl.length live < max_live then admit (i, due, a)
    else Queue.add (i, due, a) waiting;
    if i + 1 < n then schedule (i + 1) due
  and schedule i prev_due =
    let a = next i in
    let due = prev_due + a.gap_ns in
    Printf.bprintf stream "%d:%s;" due a.what;
    Hw.Machine.schedule_at m ~time:due (arrive i due a)
  in
  (* Reap what finished in the last event, then let queued arrivals
     into the freed slots. *)
  let reap () =
    let now = Hw.Machine.now m in
    let finished =
      Hashtbl.fold
        (fun pid (op, due, finish) acc ->
          match (K.User_process.proc up pid).K.User_process.pstate with
          | K.User_process.P_done -> (pid, op, due, finish, true) :: acc
          | K.User_process.P_failed _ -> (pid, op, due, finish, false) :: acc
          | _ -> acc)
        live []
    in
    (* Hashtbl order is not part of the contract: settle in op order. *)
    let finished =
      List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare a b) finished
    in
    List.iter
      (fun (pid, op, due, finish, ok) ->
        Hashtbl.remove live pid;
        Trace.step_close ~op;
        if ok then begin
          Phase.mark ();
          incr completed;
          latencies := (now - due) :: !latencies;
          finish pid
        end
        else incr failed)
      finished;
    while Hashtbl.length live < max_live && not (Queue.is_empty waiting) do
      admit (Queue.pop waiting)
    done
  in
  if n > 0 then schedule 0 (Hw.Machine.now m);
  K.Kernel.start k;
  let ended () = K.User_process.completed up + K.User_process.failed up in
  let seen = ref (ended ()) in
  Trace.step_begin ();
  while Hw.Machine.step m do
    if ended () <> !seen then begin
      seen := ended ();
      reap ()
    end;
    Trace.step_begin ()
  done;
  Trace.step_close ~op:n;
  { r_attempted = n; r_completed = !completed; r_failed = !failed;
    r_lateness_ns = !lateness; r_latencies = !latencies;
    r_arrivals = Round.digest_of_buffer stream }
