(* Unit tests for the smaller core modules: meter, ids, core segments,
   scheduler, quota cells, workload generators, virtual processors. *)

module K = Multics_kernel
module Hw = Multics_hw
module Sync = Multics_sync

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Meter *)

let test_meter () =
  let m = K.Meter.create () in
  let by_manager = Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int) in
  (* Resolved out of name order; "c" never charged, "z" charged zero. *)
  let z = K.Meter.account m "z" in
  ignore (K.Meter.account m "c");
  let b = K.Meter.account m "b" and a = K.Meter.account m "a" in
  check by_manager "nothing charged, nothing listed" [] (K.Meter.by_manager m);
  K.Meter.charge a K.Cost.Asm 100;
  (* A second account for one name shares the first's total. *)
  K.Meter.charge (K.Meter.account m "a") K.Cost.Pl1 100;
  K.Meter.charge b K.Cost.Pl1 50;
  K.Meter.charge_raw z 0;
  check Alcotest.int "pending scales by language" 400 (K.Meter.pending m);
  check Alcotest.int "take resets" 400 (K.Meter.take_pending m);
  check Alcotest.int "pending zero" 0 (K.Meter.pending m);
  check Alcotest.int "total keeps" 400 (K.Meter.total m);
  check by_manager "by manager: charged only, zero counts, sorted"
    [ ("a", 300); ("b", 100); ("z", 0) ]
    (K.Meter.by_manager m);
  (* Meters keep separate books, even under one manager name. *)
  let other = K.Meter.create () in
  K.Meter.charge_raw (K.Meter.account other "a") 7;
  check Alcotest.int "other meter's total" 7 (K.Meter.total other);
  check by_manager "first meter untouched"
    [ ("a", 300); ("b", 100); ("z", 0) ]
    (K.Meter.by_manager m)

let test_cost_scale () =
  check Alcotest.int "asm is 1x" 1000 (K.Cost.scale K.Cost.Asm 1000);
  check Alcotest.int "pl1 is 2x" 2000 (K.Cost.scale K.Cost.Pl1 1000)

(* ------------------------------------------------------------------ *)
(* Ids *)

let test_ids_generator () =
  let fresh = K.Ids.generator () in
  let a = fresh () and b = fresh () in
  check Alcotest.bool "distinct" false (K.Ids.equal a b);
  check Alcotest.bool "not mythical" false (K.Ids.is_mythical a)

let prop_mythical_disjoint =
  QCheck.Test.make ~name:"mythical ids never collide with real ids" ~count:200
    QCheck.(pair small_nat (string_of_size (QCheck.Gen.return 6)))
    (fun (n, name) ->
      let fresh = K.Ids.generator () in
      let real = List.init (max 1 (n mod 50 + 1)) (fun _ -> fresh ()) in
      let myth = K.Ids.mythical ~parent:(List.hd real) ~name in
      K.Ids.is_mythical myth
      && not (List.exists (fun r -> K.Ids.equal r myth) real))

let prop_mythical_stable =
  QCheck.Test.make ~name:"mythical ids deterministic" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.return 8)) (string_of_size (QCheck.Gen.return 8)))
    (fun (a, b) ->
      let fresh = K.Ids.generator () in
      let parent = fresh () in
      let m1 = K.Ids.mythical ~parent ~name:a in
      let m2 = K.Ids.mythical ~parent ~name:a in
      let m3 = K.Ids.mythical ~parent ~name:b in
      K.Ids.equal m1 m2 && (a = b || not (K.Ids.equal m1 m3)))

(* ------------------------------------------------------------------ *)
(* Core segments *)

let core_fixture () =
  let machine =
    Hw.Machine.create (Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 16)
  in
  let meter = K.Meter.create () in
  K.Core_segment.create ~machine ~meter ~reserved_frames:4

let test_core_segment_alloc () =
  let core = core_fixture () in
  check Alcotest.int "reservation at top" 12
    (K.Core_segment.first_reserved_frame core);
  let r1 = K.Core_segment.alloc core ~name:"a" ~words:100 in
  let r2 = K.Core_segment.alloc core ~name:"b" ~words:100 in
  check Alcotest.bool "disjoint" true
    (r2.K.Core_segment.base >= r1.K.Core_segment.base + 100);
  K.Core_segment.write core r1 7 42;
  check Alcotest.int "read back" 42 (K.Core_segment.read core r1 7);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Core_segment: offset 100 outside \"a\" (100 words)")
    (fun () -> ignore (K.Core_segment.read core r1 100))

let test_core_segment_freeze () =
  let core = core_fixture () in
  ignore (K.Core_segment.alloc core ~name:"a" ~words:10);
  K.Core_segment.freeze core;
  Alcotest.check_raises "frozen"
    (Failure "Core_segment.alloc: allocator frozen after initialisation")
    (fun () -> ignore (K.Core_segment.alloc core ~name:"b" ~words:10))

let test_core_segment_exhaustion () =
  let core = core_fixture () in
  Alcotest.check_raises "pool exhausted"
    (Failure "Core_segment.alloc: pool exhausted allocating \"big\"")
    (fun () ->
      ignore
        (K.Core_segment.alloc core ~name:"big"
           ~words:(5 * Hw.Addr.page_size)))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_scheduler_fcfs () =
  let s = K.Scheduler.create K.Scheduler.Fcfs in
  K.Scheduler.enqueue s 1;
  K.Scheduler.enqueue s 2;
  check (Alcotest.option Alcotest.int) "first" (Some 1) (K.Scheduler.next s);
  check (Alcotest.option Alcotest.int) "second" (Some 2) (K.Scheduler.next s);
  check (Alcotest.option Alcotest.int) "empty" None (K.Scheduler.next s);
  check Alcotest.bool "fcfs never preempts" true
    (K.Scheduler.quantum_for s 1 = max_int)

let test_scheduler_multilevel () =
  let s = K.Scheduler.create (K.Scheduler.Multilevel { levels = 3; base_quantum = 4 }) in
  K.Scheduler.enqueue s 1;
  check Alcotest.int "top quantum" 4 (K.Scheduler.quantum_for s 1);
  ignore (K.Scheduler.next s);
  K.Scheduler.requeue_preempted s 1;
  check Alcotest.int "demoted quantum doubles" 8 (K.Scheduler.quantum_for s 1);
  ignore (K.Scheduler.next s);
  K.Scheduler.requeue_preempted s 1;
  K.Scheduler.requeue_preempted s 1;
  (* clamped at the bottom level *)
  check Alcotest.int "bottom quantum" 16 (K.Scheduler.quantum_for s 1);
  (* priority: a fresh arrival beats the demoted process *)
  K.Scheduler.enqueue s 2;
  check (Alcotest.option Alcotest.int) "fresh wins" (Some 2) (K.Scheduler.next s)

let prop_scheduler_conserves =
  QCheck.Test.make ~name:"scheduler returns each pid exactly once" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 100))
    (fun pids ->
      let pids = List.sort_uniq compare pids in
      let s = K.Scheduler.create (K.Scheduler.Round_robin { quantum = 2 }) in
      List.iter (K.Scheduler.enqueue s) pids;
      let rec drain acc =
        match K.Scheduler.next s with
        | Some pid -> drain (pid :: acc)
        | None -> List.rev acc
      in
      drain [] = pids)

(* ------------------------------------------------------------------ *)
(* Quota cells *)

let quota_fixture () =
  let machine =
    Hw.Machine.create ~disk_packs:1 ~records_per_pack:16
      (Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 16)
  in
  let meter = K.Meter.create () in
  let core = K.Core_segment.create ~machine ~meter ~reserved_frames:4 in
  let signals = K.Upward_signal.create ~meter ~obs:(Hw.Machine.obs machine) in
  let volume = K.Volume.create ~machine ~meter ~signals () in
  let quota = K.Quota_cell.create ~meter ~core ~volume ~max_cells:4 in
  (machine, volume, quota)

let test_quota_cell_lifecycle () =
  let machine, volume, quota = quota_fixture () in
  ignore machine;
  let uid = K.Ids.generator () () in
  let index =
    K.Volume.create_segment volume ~uid ~pack:0 ~is_directory:true ~label:0 ()
  in
  let cell =
    K.Quota_cell.register quota ~pack:0 ~vtoc_index:index ~limit:10 ~used:0
  in
  check Alcotest.bool "charge ok" true
    (Result.is_ok (K.Quota_cell.charge quota cell 8));
  check Alcotest.bool "over refused" true
    (Result.is_error (K.Quota_cell.charge quota cell 3));
  K.Quota_cell.uncharge quota cell 4;
  check Alcotest.int "used" 4 (K.Quota_cell.used quota cell);
  (* sync persists into the VTOC entry *)
  K.Quota_cell.sync quota cell;
  let vtoc = K.Volume.vtoc volume ~pack:0 ~index in
  (match vtoc.Hw.Disk.quota with
  | Some q ->
      check Alcotest.int "persisted used" 4 q.Hw.Disk.used;
      check Alcotest.int "persisted limit" 10 q.Hw.Disk.limit
  | None -> Alcotest.fail "expected persisted quota");
  (* re-registration returns the same handle *)
  check Alcotest.int "re-register" cell
    (K.Quota_cell.register quota ~pack:0 ~vtoc_index:index ~limit:99 ~used:99);
  K.Quota_cell.unregister quota cell;
  Alcotest.check_raises "stale handle"
    (Invalid_argument (Printf.sprintf "Quota_cell: stale handle %d" cell))
    (fun () -> ignore (K.Quota_cell.used quota cell))

let test_quota_cell_move () =
  let _machine, volume, quota = quota_fixture () in
  let fresh = K.Ids.generator () in
  let mk limit =
    let uid = fresh () in
    let index =
      K.Volume.create_segment volume ~uid ~pack:0 ~is_directory:true ~label:0 ()
    in
    K.Quota_cell.register quota ~pack:0 ~vtoc_index:index ~limit ~used:0
  in
  let parent = mk 20 and child = mk 0 in
  check Alcotest.bool "move ok" true
    (Result.is_ok (K.Quota_cell.move_quota quota ~from:parent ~to_:child 8));
  check Alcotest.int "parent limit" 12 (K.Quota_cell.limit quota parent);
  check Alcotest.int "child limit" 8 (K.Quota_cell.limit quota child);
  (* cannot move limit out from under recorded usage *)
  ignore (K.Quota_cell.charge quota parent 10);
  check Alcotest.bool "refused" true
    (Result.is_error
       (K.Quota_cell.move_quota quota ~from:parent ~to_:child 5))

let prop_quota_invariant =
  QCheck.Test.make ~name:"quota cell: 0 <= used <= limit always" ~count:200
    QCheck.(list_of_size Gen.(0 -- 40) (pair bool (int_range 1 5)))
    (fun ops ->
      let _machine, volume, quota = quota_fixture () in
      let uid = K.Ids.generator () () in
      let index =
        K.Volume.create_segment volume ~uid ~pack:0
          ~is_directory:true ~label:0 ()
      in
      let cell =
        K.Quota_cell.register quota ~pack:0 ~vtoc_index:index ~limit:10 ~used:0
      in
      List.for_all
        (fun (is_charge, n) ->
          (if is_charge then ignore (K.Quota_cell.charge quota cell n)
           else K.Quota_cell.uncharge quota cell n);
          let used = K.Quota_cell.used quota cell in
          used >= 0 && used <= 10)
        ops)

(* ------------------------------------------------------------------ *)
(* Workload generators *)

let generators =
  [ ("sequential_write", K.Workload.sequential_write ~seg_reg:0 ~pages:5);
    ("sequential_read", K.Workload.sequential_read ~seg_reg:1 ~pages:3);
    ("random_touches",
     K.Workload.random_touches ~seg_reg:0 ~pages:4 ~count:10 ~write_pct:50
       ~seed:3);
    ("compute_bound", K.Workload.compute_bound ~steps:4 ~step_ns:100);
    ("file_churn", K.Workload.file_churn ~dir:">d" ~files:3 ~pages_each:2 ~seed:1) ]

let test_generators_terminate () =
  List.iter
    (fun (name, prog) ->
      check Alcotest.bool (name ^ " nonempty") true (Array.length prog > 0);
      check Alcotest.bool (name ^ " ends with terminate") true
        (prog.(Array.length prog - 1) = K.Workload.Terminate);
      (* Terminate appears exactly once. *)
      let terminates =
        Array.fold_left
          (fun acc a -> if a = K.Workload.Terminate then acc + 1 else acc)
          0 prog
      in
      check Alcotest.int (name ^ " single terminate") 1 terminates)
    generators

let test_concat_single_terminate () =
  let joined = K.Workload.concat (List.map snd generators) in
  let terminates =
    Array.fold_left
      (fun acc a -> if a = K.Workload.Terminate then acc + 1 else acc)
      0 joined
  in
  check Alcotest.int "one terminate" 1 terminates;
  check Alcotest.bool "terminate last" true
    (joined.(Array.length joined - 1) = K.Workload.Terminate)

let prop_prng_deterministic =
  QCheck.Test.make ~name:"workload prng deterministic per seed" ~count:100
    QCheck.small_nat
    (fun seed ->
      let a = K.Workload.Prng.create ~seed in
      let b = K.Workload.Prng.create ~seed in
      List.for_all (fun _ -> K.Workload.Prng.int a 1000 = K.Workload.Prng.int b 1000)
        (List.init 20 Fun.id))

(* ------------------------------------------------------------------ *)
(* Virtual processors *)

let vp_fixture () =
  let machine =
    Hw.Machine.create (Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 16)
  in
  let meter = K.Meter.create () in
  let core = K.Core_segment.create ~machine ~meter ~reserved_frames:4 in
  let vp = K.Vp.create ~machine ~meter ~core ~n_vps:3 () in
  (machine, vp)

let test_vp_run_and_stop () =
  let machine, vp = vp_fixture () in
  let steps = ref 0 in
  K.Vp.bind vp ~vp_id:0 ~name:"worker" ~step:(fun _ ->
      incr steps;
      if !steps < 5 then K.Vp.Continue 100 else K.Vp.Stopped 100);
  K.Vp.kick vp;
  Hw.Machine.run machine;
  check Alcotest.int "ran to stop" 5 !steps;
  check Alcotest.bool "vp idle after stop" true
    ((K.Vp.vp vp 0).K.Vp.vp_state = `Idle);
  (* The slot is reusable. *)
  K.Vp.bind vp ~vp_id:0 ~name:"again" ~step:(fun _ -> K.Vp.Stopped 10);
  K.Vp.kick vp;
  Hw.Machine.run machine;
  check (Alcotest.option Alcotest.int) "idle again" (Some 0) (K.Vp.find_idle vp)

let test_vp_wait_and_wake () =
  let machine, vp = vp_fixture () in
  let ec = Sync.Eventcount.create () in
  let resumed = ref false in
  K.Vp.bind vp ~vp_id:0 ~name:"waiter" ~step:(fun _ ->
      if not !resumed then begin
        resumed := true;
        K.Vp.Wait (ec, 1, 50)
      end
      else K.Vp.Stopped 50);
  (* A second VP advances the eventcount later. *)
  let fired = ref false in
  K.Vp.bind vp ~vp_id:1 ~name:"advancer" ~step:(fun _ ->
      if not !fired then begin
        fired := true;
        K.Vp.Continue 500
      end
      else begin
        Sync.Eventcount.advance ec;
        K.Vp.Stopped 50
      end);
  K.Vp.kick vp;
  Hw.Machine.run machine;
  check Alcotest.bool "waiter resumed and stopped" true
    ((K.Vp.vp vp 0).K.Vp.vp_state = `Idle);
  check Alcotest.int "one wait recorded" 1 (K.Vp.vp vp 0).K.Vp.waits

let test_vp_wakeup_waiting_switch () =
  let machine, vp = vp_fixture () in
  let ec = Sync.Eventcount.create () in
  Sync.Eventcount.advance ec;
  (* Waiting for an already-reached value: the wakeup-waiting switch
     catches it instead of losing the notification. *)
  let phase = ref 0 in
  K.Vp.bind vp ~vp_id:0 ~name:"racer" ~step:(fun _ ->
      incr phase;
      if !phase = 1 then K.Vp.Wait (ec, 1, 10) else K.Vp.Stopped 10);
  K.Vp.kick vp;
  Hw.Machine.run machine;
  check Alcotest.int "save counted" 1 (K.Vp.wakeup_waiting_saves vp);
  check Alcotest.int "still completed" 2 !phase

let test_vp_double_bind_rejected () =
  let _machine, vp = vp_fixture () in
  K.Vp.bind vp ~vp_id:0 ~name:"a" ~step:(fun _ -> K.Vp.Stopped 1);
  Alcotest.check_raises "busy" (Invalid_argument "Vp.bind: vp 0 not idle")
    (fun () -> K.Vp.bind vp ~vp_id:0 ~name:"b" ~step:(fun _ -> K.Vp.Stopped 1))

let tests =
  [ Alcotest.test_case "meter" `Quick test_meter;
    Alcotest.test_case "cost scale" `Quick test_cost_scale;
    Alcotest.test_case "ids generator" `Quick test_ids_generator;
    qcheck prop_mythical_disjoint;
    qcheck prop_mythical_stable;
    Alcotest.test_case "core segment alloc" `Quick test_core_segment_alloc;
    Alcotest.test_case "core segment freeze" `Quick test_core_segment_freeze;
    Alcotest.test_case "core segment exhaustion" `Quick
      test_core_segment_exhaustion;
    Alcotest.test_case "scheduler fcfs" `Quick test_scheduler_fcfs;
    Alcotest.test_case "scheduler multilevel" `Quick test_scheduler_multilevel;
    qcheck prop_scheduler_conserves;
    Alcotest.test_case "quota cell lifecycle" `Quick test_quota_cell_lifecycle;
    Alcotest.test_case "quota cell move" `Quick test_quota_cell_move;
    qcheck prop_quota_invariant;
    Alcotest.test_case "generators terminate" `Quick test_generators_terminate;
    Alcotest.test_case "concat single terminate" `Quick
      test_concat_single_terminate;
    qcheck prop_prng_deterministic;
    Alcotest.test_case "vp run and stop" `Quick test_vp_run_and_stop;
    Alcotest.test_case "vp wait and wake" `Quick test_vp_wait_and_wake;
    Alcotest.test_case "vp wakeup-waiting switch" `Quick
      test_vp_wakeup_waiting_switch;
    Alcotest.test_case "vp double bind rejected" `Quick
      test_vp_double_bind_rejected ]
