(* The disk I/O scheduler: elevator ordering, batch bounds, the
   write-behind coherence rules, and the read-ahead's low-water
   discipline.  The queues are deterministic — ordering comes from the
   sweep discipline and submission sequence, never wall-clock — so
   every expectation here is exact. *)

module K = Multics_kernel
module Hw = Multics_hw

let check = Alcotest.check

let page words =
  let img = Array.make Hw.Addr.page_size 0 in
  List.iteri (fun i w -> img.(i) <- w) words;
  Hw.Page_image.of_words img

let w0 img = Hw.Page_image.get img 0
let words_of img = Array.to_list (Hw.Page_image.to_words img)

let rig ?config ?faults () =
  let machine =
    Hw.Machine.create ~disk_packs:2 ~records_per_pack:64
      Hw.Hw_config.kernel_multics
  in
  let disk = machine.Hw.Machine.disk in
  let io =
    Hw.Io_sched.create ?config ?faults
      ~now:(fun () -> Hw.Machine.now machine)
      ~disk ~schedule:(Hw.Machine.schedule machine) ()
  in
  (machine, disk, io)

(* Reads in the fault-free tests must never error. *)
let expect = function
  | Ok img -> img
  | Error e -> Alcotest.failf "unexpected io error: %a" Hw.Io_sched.pp_io_error e

(* ------------------------------------------------------------------ *)
(* Elevator ordering: a scrambled set submitted in one instant comes
   back in one ascending sweep, deterministically. *)

let test_elevator_order () =
  let machine, disk, io = rig () in
  List.iter
    (fun r -> Hw.Disk.write_record disk ~pack:0 ~record:r (page [ r ]))
    [ 5; 1; 9; 3; 7 ];
  let order = ref [] in
  List.iter
    (fun r ->
      Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun r ->
          order := w0 (expect r) :: !order))
    [ 5; 1; 9; 3; 7 ];
  Hw.Machine.run machine;
  check
    Alcotest.(list int)
    "ascending sweep" [ 1; 3; 5; 7; 9 ] (List.rev !order);
  let s = Hw.Io_sched.stats io in
  check Alcotest.int "one batch" 1 s.Hw.Io_sched.s_batches;
  check Alcotest.int "five reads" 5 s.Hw.Io_sched.s_reads;
  (* Read priority: a read submitted in the same instant as earlier
     writes gets a sweep of its own, ahead of them, though the elevator
     would reach its record last. *)
  let served = ref [] in
  List.iter
    (fun r ->
      Hw.Io_sched.submit_write io ~pack:0 ~record:r (page [ r ])
        ~done_:(fun res ->
          expect res;
          served := Printf.sprintf "w%d" r :: !served))
    [ 2; 4; 6 ];
  Hw.Io_sched.submit_read io ~pack:0 ~record:8 ~done_:(fun res ->
      ignore (expect res);
      served := "r8" :: !served);
  Hw.Machine.run machine;
  check
    Alcotest.(list string)
    "read served by the first sweep" [ "r8"; "w2"; "w4"; "w6" ]
    (List.rev !served)

(* Seek-optimality of the sweep's cost: one seek per discontinuity,
   adjacent records chain for free, and a batch that continues at the
   arm's position pays no initial seek. *)

(* One arm, round latencies and the overload knobs off.  Fed only
   reads that wait less than the deadline, this is the pure elevator:
   read priority has no writes to reorder and the deadline never
   fires.  The cost-model and bound tests pin that scheduler exactly;
   the policy tests below add arms or mix in writes. *)
let single_arm ~max_batch =
  { Hw.Io_sched.max_batch; pack_ways = 1; seek_ns = 1_000; transfer_ns = 100;
    retry_limit = 3;
    retry_budget = 0; breaker_threshold = 0; breaker_cooldown_ns = 0 }

(* Arm time and sweeps charged by one run of the machine: the deltas of
   the scheduler's own [s_busy_ns] and [s_batches]. *)
let sweep_cost machine io =
  let s0 = Hw.Io_sched.stats io in
  Hw.Machine.run machine;
  let s1 = Hw.Io_sched.stats io in
  ( s1.Hw.Io_sched.s_busy_ns - s0.Hw.Io_sched.s_busy_ns,
    s1.Hw.Io_sched.s_batches - s0.Hw.Io_sched.s_batches )

let test_batch_cost_model () =
  let config = single_arm ~max_batch:8 in
  let machine, _disk, io = rig ~config () in
  (* Head starts at record 0: [0;1;2] is one continuation chain (no
     seek at all), then the jump to 20 is one seek, and 21 chains. *)
  List.iter
    (fun r -> Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun _ -> ()))
    [ 21; 0; 20; 2; 1 ];
  check Alcotest.(pair int int) "one sweep, one seek" (1_500, 1)
    (sweep_cost machine io);
  let s = Hw.Io_sched.stats io in
  check Alcotest.int "four merges" 4 s.Hw.Io_sched.s_merges;
  (* A second, discontiguous batch pays a fresh seek: head is at 22. *)
  Hw.Io_sched.submit_read io ~pack:0 ~record:40 ~done_:(fun _ -> ());
  check Alcotest.(pair int int) "isolated request = seek + transfer"
    (1_100, 1) (sweep_cost machine io)

(* Batch bounds: max_batch splits the queue into full sweeps plus a
   remainder, and the queue depth statistic sees the backlog. *)

let test_batch_bounds () =
  let config = single_arm ~max_batch:4 in
  let machine, _disk, io = rig ~config () in
  (* A sweep's completions all fire at its end, so the completions per
     instant are the sweep sizes. *)
  let sizes = ref [] in
  let completed _ =
    let now = Hw.Machine.now machine in
    match !sizes with
    | (t, n) :: rest when t = now -> sizes := (t, n + 1) :: rest
    | l -> sizes := (now, 1) :: l
  in
  for r = 0 to 9 do
    Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:completed
  done;
  check Alcotest.int "backlog visible" 10 (Hw.Io_sched.queue_depth io ~pack:0);
  Hw.Machine.run machine;
  check Alcotest.(list int) "4+4+2" [ 4; 4; 2 ] (List.rev_map snd !sizes);
  let s = Hw.Io_sched.stats io in
  check Alcotest.int "max batch bounded" 4 s.Hw.Io_sched.s_max_batch;
  check Alcotest.int "queue peak" 10 s.Hw.Io_sched.s_queue_peak;
  check Alcotest.int "drained" 0 (Hw.Io_sched.queue_depth io ~pack:0)

(* ------------------------------------------------------------------ *)
(* Write-behind coherence: queued writes are visible to every kind of
   read before they land, supersession keeps the latest image, and
   cancellation prevents a stale write from ever reaching the pack. *)

let test_write_coherence () =
  let machine, disk, io = rig () in
  Hw.Io_sched.submit_write io ~pack:0 ~record:7 (page [ 111 ]);
  (* The synchronous shim observes the queued image... *)
  let img = expect (Hw.Io_sched.read_now io ~pack:0 ~record:7) in
  check Alcotest.int "read_now sees write-behind" 111 (w0 img);
  (* ...and so does a queued read submitted after the write. *)
  let seen = ref 0 in
  Hw.Io_sched.submit_read io ~pack:0 ~record:7 ~done_:(fun r ->
      seen := w0 (expect r));
  (* A second write supersedes the first for later readers. *)
  Hw.Io_sched.submit_write io ~pack:0 ~record:7 (page [ 222 ]);
  let seen_after = ref 0 in
  Hw.Io_sched.submit_read io ~pack:0 ~record:7 ~done_:(fun r ->
      seen_after := w0 (expect r));
  Hw.Machine.run machine;
  check Alcotest.int "read ordered before 2nd write" 111 !seen;
  check Alcotest.int "read ordered after 2nd write" 222 !seen_after;
  check Alcotest.int "disk has the final image" 222
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:7))

(* The same record number on two packs names two records: the write
   buffer, the cancellation and the applied sequence of one must never
   reach the other. *)
let test_packs_kept_apart () =
  let machine, disk, io = rig () in
  let r = 12 in
  Hw.Io_sched.submit_write io ~pack:0 ~record:r (page [ 0xA ]);
  Hw.Io_sched.submit_write io ~pack:1 ~record:r (page [ 0xB ]);
  let seen = ref [] in
  List.iter
    (fun pack ->
      Hw.Io_sched.submit_read io ~pack ~record:r ~done_:(fun res ->
          seen := (pack, w0 (expect res)) :: !seen))
    [ 0; 1 ];
  let now pack = w0 (expect (Hw.Io_sched.read_now io ~pack ~record:r)) in
  check Alcotest.int "read_now on pack 0 sees A" 0xA (now 0);
  check Alcotest.int "read_now on pack 1 sees B" 0xB (now 1);
  (match Hw.Io_sched.write_now io ~pack:1 ~record:r (page [ 0xC ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_now: %a" Hw.Io_sched.pp_io_error e);
  check Alcotest.int "write_now cancelled pack 1's write only" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_cancelled;
  check Alcotest.int "pack 0 still buffers A" 0xA (now 0);
  Hw.Machine.run machine;
  check
    Alcotest.(list (pair int int))
    "each buffer hit saw its own pack's write"
    [ (0, 0xA); (1, 0xB) ]
    (List.rev !seen);
  check Alcotest.int "two buffer hits" 2
    (Hw.Io_sched.stats io).Hw.Io_sched.s_buffer_hits;
  check Alcotest.int "pack 0's A landed, not stale" 0xA
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:r));
  check Alcotest.int "pack 1 holds C" 0xC
    (w0 (Hw.Disk.read_record disk ~pack:1 ~record:r))

let test_cancel_writes () =
  let machine, disk, io = rig () in
  Hw.Disk.write_record disk ~pack:0 ~record:3 (page [ 5 ]);
  Hw.Io_sched.submit_write io ~pack:0 ~record:3 (page [ 666 ]);
  Hw.Io_sched.cancel_writes io ~pack:0 ~record:3;
  Hw.Machine.run machine;
  check Alcotest.int "stale write never landed" 5
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:3));
  check Alcotest.int "cancellation counted" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_cancelled

(* The ordering contract pinned in the .mli: cancel_writes BEFORE
   free_record.  With that order, a buffered image of a dying page can
   never land on the record's next owner. *)
let test_cancel_before_free_ordering () =
  let machine, disk, io = rig () in
  let r = Hw.Disk.alloc_record disk ~pack:0 in
  Hw.Io_sched.submit_write io ~pack:0 ~record:r (page [ 666 ]);
  (* The page dies: cancel first, then free. *)
  Hw.Io_sched.cancel_writes io ~pack:0 ~record:r;
  Hw.Disk.free_record disk ~pack:0 ~record:r;
  (* The record is recycled to a new owner, who writes its own data. *)
  let r2 = Hw.Disk.alloc_record disk ~pack:0 in
  check Alcotest.int "record recycled to a new owner" r r2;
  Hw.Io_sched.submit_write io ~pack:0 ~record:r2 (page [ 42 ]);
  Hw.Machine.run machine;
  check Alcotest.int "new owner's image intact — stale write never landed" 42
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:r2));
  check Alcotest.int "old write was cancelled" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_cancelled

let test_quiesce () =
  let machine, disk, io = rig () in
  Hw.Io_sched.submit_write io ~pack:1 ~record:9 (page [ 42 ]);
  (* No events have run: the write is still queued. *)
  Hw.Io_sched.quiesce io;
  check Alcotest.int "quiesce applied the write" 42
    (w0 (Hw.Disk.read_record disk ~pack:1 ~record:9));
  (* The already-scheduled completion event must now be a no-op. *)
  Hw.Machine.run machine;
  let s = Hw.Io_sched.stats io in
  check Alcotest.int "applied exactly once" 1 s.Hw.Io_sched.s_batches

(* ------------------------------------------------------------------ *)
(* Policies: the deadline starvation bound, the write throttle, and
   the write-buffer read fast path. *)

(* Under read priority on a single arm, a self-sustaining read stream
   would starve a queued write forever; the deadline preempts the sweep
   and bounds the wait.  The stream refills the queue from inside each
   completion, so no dispatch ever sees an empty read pool — the write
   lands only because it expires, 256 single transfers after it was
   submitted.  The stream must outlast that: 10,000 mostly sequential
   reads take about 1.25 ms. *)
let test_deadline_starvation_bound () =
  let deadline = 256 * (1_000 + 100) in
  let config = single_arm ~max_batch:4 in
  let machine, disk, io = rig ~config () in
  for r = 0 to 40 do
    Hw.Disk.write_record disk ~pack:0 ~record:r (page [ r ])
  done;
  let write_applied_at = ref (-1) in
  Hw.Io_sched.set_on_apply io (fun ~pack:_ ~record ~acked:_ _ ->
      if record = 50 && !write_applied_at < 0 then
        write_applied_at := Hw.Machine.now machine);
  Hw.Io_sched.submit_write io ~pack:0 ~record:50 (page [ 777 ]);
  let rounds = ref 0 in
  let rec next_read i =
    Hw.Io_sched.submit_read io ~pack:0 ~record:(i mod 40) ~done_:(fun r ->
        ignore (expect r);
        incr rounds;
        if !rounds < 10_000 then next_read (i + 1))
  in
  next_read 0;
  Hw.Machine.run machine;
  check Alcotest.int "write landed" 777
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:50));
  check Alcotest.bool "not before its deadline" true
    (!write_applied_at >= deadline);
  (* One read batch may be in flight at expiry, then the forced sweep
     itself: two sweep costs of slack past the deadline. *)
  check Alcotest.bool "but within the starvation bound" true
    (!write_applied_at <= deadline + (2 * 1_100));
  check Alcotest.bool "served by a deadline-forced sweep" true
    ((Hw.Io_sched.stats io).Hw.Io_sched.s_deadline_batches >= 1)

(* The write throttle on a two-arm pack: while one arm serves a read,
   a write-only sweep may not take the other, last free arm.  A read
   arriving next is served on that arm at once; the write goes out
   only when both arms are free.  Without the throttle the write would
   hold the second arm and the late read would wait for a sweep to
   finish (done at 2,200 instead of 1,600). *)
let test_write_throttle () =
  let config = { (single_arm ~max_batch:8) with Hw.Io_sched.pack_ways = 2 } in
  let machine, _disk, io = rig ~config () in
  let at = ref [] in
  let note what = at := (what, Hw.Machine.now machine) :: !at in
  (* t=0: read 20 takes arm 0 until 1,100; write 5 must wait. *)
  Hw.Io_sched.submit_read io ~pack:0 ~record:20 ~done_:(fun r ->
      ignore (expect r);
      note "read 20");
  Hw.Io_sched.submit_write io ~pack:0 ~record:5 (page [ 5 ]) ~done_:(fun r ->
      expect r;
      note "write 5");
  let held = ref (-1) in
  Hw.Machine.schedule machine ~delay:500 (fun () ->
      held := Hw.Io_sched.queue_depth io ~pack:0;
      Hw.Io_sched.submit_read io ~pack:0 ~record:30 ~done_:(fun r ->
          ignore (expect r);
          note "read 30"));
  Hw.Machine.run machine;
  check Alcotest.int "write held off the last free arm" 1 !held;
  check
    Alcotest.(list (pair string int))
    "late read served at once; write after both arms free"
    [ ("read 20", 1_100); ("read 30", 1_600); ("write 5", 2_700) ]
    (List.rev !at)

(* A read of a record with a pending write-behind never needs an arm:
   it is served the buffered image at once, before any batch lands. *)
let test_write_buffer_read_hit () =
  let machine, disk, io = rig () in
  Hw.Disk.write_record disk ~pack:0 ~record:5 (page [ 1 ]);
  Hw.Io_sched.submit_write io ~pack:0 ~record:5 (page [ 9 ]);
  let order = ref [] in
  Hw.Io_sched.submit_read io ~pack:0 ~record:5 ~done_:(fun r ->
      order := ("hit", w0 (expect r)) :: !order);
  Hw.Io_sched.submit_read io ~pack:0 ~record:6 ~done_:(fun r ->
      ignore (expect r);
      order := ("arm", 0) :: !order);
  Hw.Machine.run machine;
  check
    Alcotest.(list (pair string int))
    "buffered image, delivered before the sweep"
    [ ("hit", 9); ("arm", 0) ]
    (List.rev !order);
  check Alcotest.int "counted as a buffer hit" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_buffer_hits;
  check Alcotest.int "write-behind still lands" 9
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:5))

(* Cancellation and the quiesce barrier on a multi-way pack — the
   paths the C2/C4 benches rely on. *)
let test_cancel_quiesce_multiway () =
  let config = { (single_arm ~max_batch:4) with Hw.Io_sched.pack_ways = 4 } in
  let machine, disk, io = rig ~config () in
  Hw.Disk.write_record disk ~pack:0 ~record:2 (page [ 22 ]);
  Hw.Disk.write_record disk ~pack:0 ~record:10 (page [ 10 ]);
  Hw.Io_sched.submit_write io ~pack:0 ~record:1 (page [ 11 ]);
  Hw.Io_sched.submit_write io ~pack:0 ~record:2 (page [ 666 ]);
  Hw.Io_sched.submit_write io ~pack:0 ~record:3 (page [ 33 ]);
  let reads = ref 0 in
  Hw.Io_sched.submit_read io ~pack:0 ~record:10 ~done_:(fun r ->
      check Alcotest.int "read data" 10 (w0 (expect r));
      incr reads);
  Hw.Io_sched.cancel_writes io ~pack:0 ~record:2;
  Hw.Io_sched.quiesce io;
  check Alcotest.int "settled writes on the platter" 11
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:1));
  check Alcotest.int "cancelled write never landed" 22
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:2));
  check Alcotest.int "third write landed" 33
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:3));
  check Alcotest.int "read completed at the barrier" 1 !reads;
  (* Already-scheduled dispatch/completion events must now be no-ops. *)
  Hw.Machine.run machine;
  check Alcotest.int "read completed exactly once" 1 !reads;
  check Alcotest.int "cancellation counted" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_cancelled

(* Way choice on a two-arm pack: a sweep goes to the free arm nearest
   (forward circular distance) its first record, ties to the lowest
   way id.  A continuation of one arm's head therefore keeps that arm
   and pays no seek, while a request behind it goes to the other arm
   and leaves the stream's head where it was. *)
let test_nearest_way () =
  let config = { (single_arm ~max_batch:1) with Hw.Io_sched.pack_ways = 2 } in
  let machine, _disk, io = rig ~config () in
  let read r =
    Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun r ->
        ignore (expect r))
  in
  (* Each step serves one request in one sweep. *)
  let cost_is what expected record =
    read record;
    check Alcotest.(pair int int) what (expected, 1) (sweep_cost machine io)
  in
  (* Both heads at 0: record 10 is a tie, won by way 0. *)
  cost_is "first request seeks" 1_100 10;
  cost_is "continuation keeps its arm, no seek" 100 11;
  (* Record 5 lies behind way 0's head (a wrap) but ahead of way 1's. *)
  cost_is "far request seeks" 1_100 5;
  (* Both heads survived: each arm continues without a seek. *)
  cost_is "stream arm still at its head" 100 12;
  cost_is "other arm took the far request" 100 6;
  (* Quiesce drains on way 0: record 13 costs no seek only if way 0 is
     the arm the tie gave the stream to. *)
  let busy () = (Hw.Io_sched.stats io).Hw.Io_sched.s_busy_ns in
  let before = busy () in
  read 13;
  Hw.Io_sched.quiesce io;
  check Alcotest.int "tie went to the lowest way id" 100 (busy () - before);
  Hw.Machine.run machine

(* ------------------------------------------------------------------ *)
(* Fault injection: transient errors are retried behind the caller's
   back, permanent ones exhaust the budget and retire the record, a
   crash tears the unlucky tail of the write-behind buffer. *)

let test_transient_retry () =
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:4 ~times:2;
  let machine, disk, io = rig ~faults () in
  Hw.Disk.write_record disk ~pack:0 ~record:4 (page [ 77 ]);
  let seen = ref 0 and done_at = ref 0 in
  Hw.Io_sched.submit_read io ~pack:0 ~record:4 ~done_:(fun r ->
      seen := w0 (expect r);
      done_at := Hw.Machine.now machine);
  Hw.Machine.run machine;
  check Alcotest.int "read recovered after transient errors" 77 !seen;
  let s = Hw.Io_sched.stats io in
  check Alcotest.int "two retries" 2 s.Hw.Io_sched.s_retries;
  check Alcotest.int "nothing given up" 0 s.Hw.Io_sched.s_gave_up;
  (* The sweep seeks to record 4 and transfers it; the first retry then
     waits one transfer time and the second twice that. *)
  let seek = Hw.Disk.seek_latency_ns disk
  and transfer = Hw.Disk.transfer_latency_ns disk in
  check Alcotest.bool "seek and transfer differ" true (seek <> transfer);
  check Alcotest.int "backoff starts at one transfer and doubles"
    (seek + transfer + transfer + (2 * transfer))
    !done_at

(* The blocking shims retry back to back: a record that fails
   [retry_limit - 1] times still reads on its last attempt, and the
   [retry_limit]-th failure retires it, for a read and a write alike. *)
let test_inline_retry_limit () =
  let config = single_arm ~max_batch:8 in
  let limit = config.Hw.Io_sched.retry_limit in
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:1 ~times:(limit - 1);
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:2 ~times:limit;
  Hw.Fault_inject.bad_record faults ~pack:0 ~record:3;
  let _machine, disk, io = rig ~config ~faults () in
  Hw.Disk.write_record disk ~pack:0 ~record:1 (page [ 11 ]);
  let counts () =
    let s = Hw.Io_sched.stats io in
    (s.Hw.Io_sched.s_retries, s.Hw.Io_sched.s_gave_up)
  in
  let dead what = function
    | Error Hw.Io_sched.Dead_record -> ()
    | Error e -> Alcotest.failf "%s: %a" what Hw.Io_sched.pp_io_error e
    | Ok _ -> Alcotest.failf "%s: succeeded" what
  in
  check Alcotest.int "read recovers on its last attempt" 11
    (w0 (expect (Hw.Io_sched.read_now io ~pack:0 ~record:1)));
  check Alcotest.(pair int int) "retried, nothing given up" (limit - 1, 0)
    (counts ());
  dead "read failing every attempt"
    (Hw.Io_sched.read_now io ~pack:0 ~record:2);
  check Alcotest.(pair int int) "read retired on its last attempt"
    (2 * (limit - 1), 1) (counts ());
  check Alcotest.bool "read record dead" true
    (Hw.Disk.record_is_dead disk ~pack:0 ~record:2);
  dead "write to a bad record"
    (Hw.Io_sched.write_now io ~pack:0 ~record:3 (page [ 3 ]));
  check Alcotest.(pair int int) "write retired on its last attempt"
    (3 * (limit - 1), 2) (counts ());
  check Alcotest.bool "written record dead" true
    (Hw.Disk.record_is_dead disk ~pack:0 ~record:3)

let test_dead_record () =
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.bad_record faults ~pack:0 ~record:9;
  let machine, disk, io = rig ~faults () in
  let result = ref None in
  Hw.Io_sched.submit_read io ~pack:0 ~record:9 ~done_:(fun r ->
      result := Some r);
  Hw.Machine.run machine;
  (match !result with
  | Some (Error Hw.Io_sched.Dead_record) -> ()
  | Some (Ok _) -> Alcotest.fail "bad record read succeeded"
  | Some (Error _) -> Alcotest.fail "wrong error"
  | None -> Alcotest.fail "completion never fired");
  check Alcotest.bool "record retired" true
    (Hw.Disk.record_is_dead disk ~pack:0 ~record:9);
  check Alcotest.int "gave up once" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_gave_up;
  (* Retired means retired: freeing never re-lists it. *)
  let free_before = Hw.Disk.free_records disk ~pack:0 in
  Hw.Disk.free_record disk ~pack:0 ~record:9;
  check Alcotest.int "dead record never rejoins the free list" free_before
    (Hw.Disk.free_records disk ~pack:0)

let test_pack_offline () =
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.pack_offline faults ~pack:1 ~at_ns:0;
  let machine, disk, io = rig ~faults () in
  Hw.Disk.write_record disk ~pack:1 ~record:3 (page [ 8 ]);
  let result = ref None in
  Hw.Io_sched.submit_read io ~pack:1 ~record:3 ~done_:(fun r ->
      result := Some r);
  Hw.Machine.run machine;
  (match !result with
  | Some (Error Hw.Io_sched.Pack_offline) -> ()
  | _ -> Alcotest.fail "expected Pack_offline");
  (* The other pack is untouched by pack 1's failure. *)
  Hw.Disk.write_record disk ~pack:0 ~record:3 (page [ 9 ]);
  check Alcotest.int "pack 0 still readable" 9
    (w0 (expect (Hw.Io_sched.read_now io ~pack:0 ~record:3)))

(* A write that fails terminally never lands, so its image must not
   outlive it in the write buffer: once the pack is back, readers see
   the platter.  One breaker-guarded sweep fails two writes, the first
   on the offline window (which trips the breaker) and the second fast
   on the open breaker. *)
let test_failed_write_drops_image () =
  let config =
    { (single_arm ~max_batch:8) with
      Hw.Io_sched.breaker_threshold = 1; breaker_cooldown_ns = 10_000 }
  in
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.pack_offline faults ~pack:0 ~at_ns:0;
  Hw.Fault_inject.pack_online faults ~pack:0 ~at_ns:5_000;
  let machine, disk, io = rig ~config ~faults () in
  Hw.Disk.write_record disk ~pack:0 ~record:3 (page [ 30 ]);
  Hw.Disk.write_record disk ~pack:0 ~record:4 (page [ 40 ]);
  let outcome = function
    | Ok () -> "ok"
    | Error e -> Format.asprintf "%a" Hw.Io_sched.pp_io_error e
  in
  let acks = ref [] in
  List.iter
    (fun r ->
      Hw.Io_sched.submit_write io ~pack:0 ~record:r (page [ (10 * r) + 1 ])
        ~done_:(fun res -> acks := (r, outcome res) :: !acks))
    [ 3; 4 ];
  let reads = ref [] in
  Hw.Machine.schedule machine ~delay:20_000 (fun () ->
      List.iter
        (fun r ->
          Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun res ->
              reads := (r, w0 (expect res)) :: !reads))
        [ 3; 4 ]);
  Hw.Machine.run machine;
  check Alcotest.(list (pair int string)) "both writes failed"
    [ (3, "pack-offline"); (4, "breaker-open") ] (List.rev !acks);
  check Alcotest.(list (pair int int)) "queued reads see the platter"
    [ (3, 30); (4, 40) ] (List.sort compare !reads);
  check Alcotest.(list int) "immediate reads see the platter" [ 30; 40 ]
    (List.map
       (fun r -> w0 (expect (Hw.Io_sched.read_now io ~pack:0 ~record:r)))
       [ 3; 4 ]);
  check Alcotest.int "no buffer hit" 0
    (Hw.Io_sched.stats io).Hw.Io_sched.s_buffer_hits

let test_crash_tears_writes () =
  let machine, disk, io = rig () in
  Hw.Disk.write_record disk ~pack:0 ~record:1 (page [ 10 ]);
  Hw.Disk.write_record disk ~pack:0 ~record:2 (page [ 20 ]);
  let acked = ref 0 in
  Hw.Io_sched.submit_write io ~pack:0 ~record:1 (page [ 11 ])
    ~done_:(fun _ -> incr acked);
  Hw.Io_sched.submit_write io ~pack:0 ~record:2 (page [ 21 ])
    ~done_:(fun _ -> incr acked);
  let buffered = Hw.Io_sched.crash io ~surviving_writes:1 in
  check Alcotest.int "two writes were in flight" 2 buffered;
  check Alcotest.int "no completion ever fired" 0 !acked;
  (* The survivor reached the platter; the other record is
     write-atomic, so it keeps its last complete image — torn. *)
  check Alcotest.int "survivor landed" 11
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:1));
  check Alcotest.int "torn record keeps the pre-crash image" 20
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:2));
  check Alcotest.bool "torn mark set for the salvager" true
    (Hw.Disk.record_is_torn disk ~pack:0 ~record:2);
  check Alcotest.bool "survivor is not torn" false
    (Hw.Disk.record_is_torn disk ~pack:0 ~record:1);
  (* The already-scheduled dispatch events must now be no-ops. *)
  Hw.Machine.run machine;
  check Alcotest.int "nothing more lands after the crash" 20
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:2))

(* ------------------------------------------------------------------ *)
(* Shared page images: a page-out snapshots its frame once, and the
   scheduler, its readers and the platter all share that snapshot.
   The frame is free for its next page at once, so nothing that holds
   the snapshot may see the frame's later stores. *)

let test_snapshot_outlives_frame () =
  let frame = 3 in
  let page_words =
    List.init Hw.Addr.page_size (fun i -> ((i * 7919) + 1) land Hw.Word.mask)
  in
  (* Load the page, snapshot the frame, write the snapshot behind, then
     let processor stores give the frame to another page. *)
  let snapshot_then_reuse machine io ~record =
    let mem = machine.Hw.Machine.mem in
    Hw.Phys_mem.write_frame mem frame
      (Hw.Page_image.of_words (Array.of_list page_words));
    Hw.Io_sched.submit_write io ~pack:0 ~record
      (Hw.Phys_mem.read_frame mem frame);
    let base = Hw.Addr.frame_base frame in
    for i = 0 to Hw.Addr.page_size - 1 do
      Hw.Phys_mem.write mem (base + i) 0o777
    done
  in
  let machine, disk, io = rig () in
  snapshot_then_reuse machine io ~record:12;
  let hit = ref [] in
  Hw.Io_sched.submit_read io ~pack:0 ~record:12 ~done_:(fun r ->
      hit := words_of (expect r));
  check Alcotest.(list int) "read_now" page_words
    (words_of (expect (Hw.Io_sched.read_now io ~pack:0 ~record:12)));
  Hw.Machine.run machine;
  check Alcotest.int "served from the write buffer" 1
    (Hw.Io_sched.stats io).Hw.Io_sched.s_buffer_hits;
  check Alcotest.(list int) "buffer-hit read" page_words !hit;
  check Alcotest.(list int) "platter after the sweep" page_words
    (words_of (Hw.Disk.read_record disk ~pack:0 ~record:12));
  let machine, disk, io = rig () in
  snapshot_then_reuse machine io ~record:12;
  check Alcotest.int "one buffered write" 1
    (Hw.Io_sched.crash io ~surviving_writes:1);
  check Alcotest.(list int) "write surviving a crash" page_words
    (words_of (Hw.Disk.read_record disk ~pack:0 ~record:12))

(* A record nobody wrote reads as zeros, straight off the platter and
   through the scheduler alike. *)
let test_unwritten_record_reads_zero () =
  let machine, disk, io = rig () in
  let zeros = List.init Hw.Addr.page_size (fun _ -> 0) in
  check Alcotest.(list int) "Disk.read_record" zeros
    (words_of (Hw.Disk.read_record disk ~pack:0 ~record:40));
  let got = ref [] in
  Hw.Io_sched.submit_read io ~pack:0 ~record:41 ~done_:(fun r ->
      got := words_of (expect r));
  Hw.Machine.run machine;
  check Alcotest.(list int) "submit_read" zeros !got

(* The one-copy property, pinned.  A page-in through the scheduler
   allocates no page on the major heap: the platter's image is shared
   with the reader and loaded into the frame in place.  A page-out
   allocates exactly one, the frame snapshot.  Any defensive copy on
   either path adds a whole page (1,024 words) per transfer. *)
let test_transfer_allocation () =
  let n = 256 in
  let disk =
    Hw.Disk.create ~packs:1 ~records_per_pack:1024 ~read_latency_ns:2_000_000
  in
  let q = Hw.Event_queue.create () in
  let clock = ref 0 in
  let io =
    Hw.Io_sched.create ~disk
      ~now:(fun () -> !clock)
      ~schedule:(fun ~delay fn -> Hw.Event_queue.add q ~time:(!clock + delay) fn)
      ()
  in
  let rec pump () =
    match Hw.Event_queue.pop q with
    | Some (t, fn) ->
        clock := t;
        fn ();
        pump ()
    | None -> ()
  in
  let mem = Hw.Phys_mem.create ~frames:4 in
  for r = 0 to n - 1 do
    Hw.Disk.write_record disk ~pack:0 ~record:r (page [ r ])
  done;
  (* A page is too large for the minor heap, so every page copy lands
     on the major heap directly.  Count only that: words promoted from
     the minor heap also count as major, but how many get promoted
     depends on the minor heap's size ([OCAMLRUNPARAM=s]), not on the
     code under test. *)
  let major_words () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let per_transfer before = (major_words () -. before) /. float_of_int n in
  let loaded = ref 0 in
  let before = major_words () in
  for r = 0 to n - 1 do
    Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun res ->
        Hw.Phys_mem.write_frame mem (r land 3) (expect res);
        incr loaded)
  done;
  pump ();
  let per_read = per_transfer before in
  let before = major_words () in
  for r = 0 to n - 1 do
    Hw.Phys_mem.write mem (Hw.Addr.frame_base (r land 3)) r;
    Hw.Io_sched.submit_write io ~pack:0 ~record:(n + r)
      (Hw.Phys_mem.read_frame mem (r land 3))
  done;
  pump ();
  let per_write = per_transfer before in
  check Alcotest.int "every read loaded" n !loaded;
  check Alcotest.int "every write landed" (n - 1)
    (w0 (Hw.Disk.read_record disk ~pack:0 ~record:(2 * n - 1)));
  if per_read >= 64.0 then
    Alcotest.failf "page-in: %.0f major-heap words per read (want < 64)"
      per_read;
  if per_write > 1.1 *. float_of_int Hw.Addr.page_size then
    Alcotest.failf "page-out: %.0f major-heap words per write (want <= %.0f)"
      per_write
      (1.1 *. float_of_int Hw.Addr.page_size)

(* ------------------------------------------------------------------ *)
(* Kernel-level: the asynchronous protocol computes bit-identical disk
   contents to the synchronous shim, and read-ahead respects the
   cleaner's low-water mark. *)

let cramped use_io_sched read_ahead use_cleaner_daemon =
  { K.Kernel.default_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    core_frames = 24; use_io_sched; read_ahead; use_cleaner_daemon }

let seq_workload k =
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (K.Workload.concat
          [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
               K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_write ~seg_reg:0 ~pages:48 ]));
  Alcotest.(check bool) "writer completed" true (K.Kernel.run_to_completion k);
  ignore
    (K.Kernel.spawn k ~pname:"reader"
       (K.Workload.concat
          [ [| K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_read ~seg_reg:0 ~pages:48 ]));
  Alcotest.(check bool) "reader completed" true (K.Kernel.run_to_completion k)

let boot_home config =
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home"
    ~acl:[ K.Acl.entry "*" K.Acl.rwe ]
    ~label:Multics_aim.Label.system_low;
  k

(* Every allocated record of every segment, word for word. *)
let disk_image k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let out = ref [] in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (index, (e : Hw.Disk.vtoc_entry)) ->
        Array.iteri
          (fun pageno handle ->
            if handle >= 0 then
              out :=
                ( e.Hw.Disk.uid, index, pageno,
                  words_of
                    (Hw.Disk.read_record d
                       ~pack:(Hw.Disk.pack_of_handle handle)
                       ~record:(Hw.Disk.record_of_handle handle)) )
                :: !out)
          e.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  List.sort compare !out

let test_async_equals_sync () =
  let run cfg =
    let k = boot_home cfg in
    seq_workload k;
    K.Kernel.shutdown k;
    disk_image k
  in
  let sync_img = run (cramped false 0 true) in
  let async_img = run (cramped true 0 true) in
  let prefetch_img = run (cramped true 2 true) in
  check Alcotest.bool "async disk image identical to sync" true
    (sync_img = async_img);
  check Alcotest.bool "read-ahead disk image identical to sync" true
    (sync_img = prefetch_img)

let test_read_ahead_hits () =
  let k = boot_home (cramped true 2 true) in
  seq_workload k;
  let pfm = K.Kernel.page_frame k in
  Alcotest.(check bool) "read-ahead issued" true
    (K.Page_frame.prefetch_issued pfm > 0);
  Alcotest.(check bool) "read-ahead hit" true
    (K.Page_frame.prefetch_hits pfm > 0)

(* With the cleaning daemon off, nothing refills the free pool, so a
   cramped sequential sweep runs with the pool at the low-water mark —
   and every read-ahead must be dropped rather than evict. *)
let test_read_ahead_low_water () =
  let k = boot_home (cramped true 2 false) in
  seq_workload k;
  let pfm = K.Kernel.page_frame k in
  Alcotest.(check bool) "attempts were made" true
    (K.Page_frame.prefetch_issued pfm + K.Page_frame.prefetch_dropped pfm > 0);
  Alcotest.(check int) "every read-ahead dropped at the low-water mark" 0
    (K.Page_frame.prefetch_issued pfm)

let tests =
  [ Alcotest.test_case "elevator order" `Quick test_elevator_order;
    Alcotest.test_case "batch cost model" `Quick test_batch_cost_model;
    Alcotest.test_case "batch bounds" `Quick test_batch_bounds;
    Alcotest.test_case "write coherence" `Quick test_write_coherence;
    Alcotest.test_case "packs kept apart" `Quick test_packs_kept_apart;
    Alcotest.test_case "cancel writes" `Quick test_cancel_writes;
    Alcotest.test_case "cancel before free ordering" `Quick
      test_cancel_before_free_ordering;
    Alcotest.test_case "quiesce" `Quick test_quiesce;
    Alcotest.test_case "deadline starvation bound" `Quick
      test_deadline_starvation_bound;
    Alcotest.test_case "write throttle" `Quick test_write_throttle;
    Alcotest.test_case "write-buffer read hit" `Quick
      test_write_buffer_read_hit;
    Alcotest.test_case "cancel+quiesce multiway" `Quick
      test_cancel_quiesce_multiway;
    Alcotest.test_case "nearest way" `Quick test_nearest_way;
    Alcotest.test_case "transient retry" `Quick test_transient_retry;
    Alcotest.test_case "inline retry limit" `Quick test_inline_retry_limit;
    Alcotest.test_case "dead record" `Quick test_dead_record;
    Alcotest.test_case "pack offline" `Quick test_pack_offline;
    Alcotest.test_case "failed write drops its image" `Quick
      test_failed_write_drops_image;
    Alcotest.test_case "crash tears writes" `Quick test_crash_tears_writes;
    Alcotest.test_case "snapshot outlives its frame" `Quick
      test_snapshot_outlives_frame;
    Alcotest.test_case "unwritten record reads zero" `Quick
      test_unwritten_record_reads_zero;
    Alcotest.test_case "one host copy per transfer" `Quick
      test_transfer_allocation;
    Alcotest.test_case "async equals sync" `Quick test_async_equals_sync;
    Alcotest.test_case "read-ahead hits" `Quick test_read_ahead_hits;
    Alcotest.test_case "read-ahead low water" `Quick test_read_ahead_low_water
  ]
