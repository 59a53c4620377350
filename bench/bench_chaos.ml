(* C4: chaos — deterministic fault injection, I/O retry with record
   sparing, and crash recovery through the salvager.

   The C2 sequential workload replays under several fault plans:

     empty      a created-but-empty plan: must be bit-identical
                (clock and disk) to a run with no plan at all
     transient  a burst of transient read errors: retries absorb
                every one, contents identical to fault-free
     bad-rec    permanently bad records: writes exhaust the retry
                budget, the records are retired, the pages spared —
                logical contents still identical to fault-free
     crash      a scheduled power failure mid-rewrite: the machine
                freezes, a fresh incarnation reboots over the
                surviving packs, the salvager repairs torn writes;
                every write applied-as-acked survives, the second
                scan is clean, the data is readable
     offline    a pack drops offline mid-run: touching processes
                fail with a damaged-page fault rather than garbage,
                the rest of the system settles

   Each plan FAILS the bench unless its acceptance holds. *)

module K = Multics_kernel
module Hw = Multics_hw

let sec = "C4"

let base_config =
  { K.Kernel.default_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    core_frames = 24; use_io_sched = true; read_ahead = 2 }

let seq_pages = 48

let reader_program =
  K.Workload.concat
    [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
      K.Workload.sequential_read ~seg_reg:0 ~pages:seq_pages ]

let rewriter_program =
  K.Workload.concat
    [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages:seq_pages ]

let fail fmt = Printf.ksprintf failwith fmt

(* Segment contents by (uid, page), independent of which records back
   the pages — sparing legitimately moves a page to a fresh record. *)
let logical_image k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let out = ref [] in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (_, (e : Hw.Disk.vtoc_entry)) ->
        Array.iteri
          (fun pageno handle ->
            if handle >= 0 then
              out :=
                ( e.Hw.Disk.uid, pageno,
                  Array.to_list
                    (Hw.Page_image.to_words
                       (Hw.Disk.read_record d
                          ~pack:(Hw.Disk.pack_of_handle handle)
                          ~record:(Hw.Disk.record_of_handle handle))) )
                :: !out)
          e.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  List.sort compare !out

let report_faults k label =
  let io = K.Kernel.io_stats k in
  Format.printf
    "  %-10s %d retries, %d records died, %d spared, %d pages damaged, %d \
     packs offline@."
    label io.K.Kernel.io_retries io.K.Kernel.io_dead_records
    io.K.Kernel.io_spared io.K.Kernel.io_damaged io.K.Kernel.io_offline;
  io

let check_clean_and_sound k what =
  (match K.Invariants.check k with
  | [] -> ()
  | problems ->
      List.iter (Format.printf "  invariant: %s@.") problems;
      fail "bench_chaos: %s left broken invariants" what);
  match List.filter (fun f -> f.K.Salvager.f_repairable) (K.Salvager.scan k) with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Format.printf "  %a@." K.Salvager.pp_finding f) fs;
      fail "bench_chaos: %s: second salvager scan found repairable damage" what

(* Write the file, checkpoint (making the hierarchy durable), rewrite
   it, read it back.  Returns timeline marks for the crash plan. *)
let run_plan faults =
  let config = { base_config with K.Kernel.faults } in
  let k = Bench_util.boot_new ~config () in
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages:seq_pages));
  let ok_w = K.Kernel.run_to_completion k in
  K.Kernel.checkpoint k;
  let t_checkpoint = K.Kernel.now k in
  ignore (K.Kernel.spawn k ~pname:"rewriter" rewriter_program);
  let ok_rw = K.Kernel.run_to_completion k in
  if K.Kernel.halted k then begin
    let k2 =
      K.Kernel.reboot
        { config with K.Kernel.faults = Hw.Fault_inject.none }
        ~from:k
    in
    (k, k2, ok_w, ok_rw, false, t_checkpoint)
  end
  else begin
    ignore (K.Kernel.spawn k ~pname:"reader" reader_program);
    let ok_r = K.Kernel.run_to_completion k in
    K.Kernel.shutdown k;
    (k, k, ok_w, ok_rw && ok_r, true, t_checkpoint)
  end

(* The pack holding ">home>big" — the only [seq_pages]-page segment. *)
let big_home_pack k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let found = ref 0 in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (_, (e : Hw.Disk.vtoc_entry)) ->
        if Hw.Disk.len_pages e >= seq_pages then found := pack)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !found

(* ------------------------------------------------------------------ *)
(* C4a: the empty plan is free.  A created-but-empty Fault_inject.t
   must not perturb the simulation by a single event or word. *)

let empty_plan () =
  Format.printf "C4a  empty plan vs no plan (bit-identity):@.";
  let _, k_none, _, ok1, done1, t_cp = run_plan Hw.Fault_inject.none in
  let _, k_empty, _, ok2, done2, _ = run_plan (Hw.Fault_inject.create ()) in
  if not (ok1 && done1 && ok2 && done2) then
    fail "bench_chaos: fault-free runs did not complete";
  let t1 = K.Kernel.now k_none and t2 = K.Kernel.now k_empty in
  let d1 = Bench_util.disk_checksum k_none
  and d2 = Bench_util.disk_checksum k_empty in
  Format.printf "  clock %d = %d, disk checksum %d = %d@." t1 t2 d1 d2;
  if t1 <> t2 then fail "bench_chaos: empty plan moved the clock";
  if d1 <> d2 then fail "bench_chaos: empty plan changed the disk";
  Bench_util.recordi ~section:sec ~metric:"faultfree_elapsed_ns" t1;
  (t1, t_cp, logical_image k_none, big_home_pack k_none)

(* ------------------------------------------------------------------ *)
(* C4b: transient read errors.  Every error is retried behind the
   caller's back; the workload and final contents are unchanged. *)

let transient_plan baseline_image =
  Format.printf "@.C4b  transient read errors (retry absorbs them):@.";
  let faults = Hw.Fault_inject.create () in
  for pack = 0 to 2 do
    for record = 1 to 6 do
      Hw.Fault_inject.fail_reads faults ~pack ~record ~times:2
    done
  done;
  let _, k, _, ok, finished, _ = run_plan faults in
  if not (ok && finished) then
    fail "bench_chaos: transient plan broke the workload";
  let io = report_faults k "transient:" in
  if io.K.Kernel.io_retries = 0 then
    fail "bench_chaos: transient plan injected no retries";
  if io.K.Kernel.io_dead_records > 0 then
    fail "bench_chaos: transient errors killed a record";
  if logical_image k <> baseline_image then
    fail "bench_chaos: transient plan changed segment contents";
  check_clean_and_sound k "transient plan";
  Format.printf "  contents identical to fault-free; system sound@.";
  Bench_util.recordi ~section:sec ~metric:"transient_retries" ~unit:"count"
    io.K.Kernel.io_retries

(* ------------------------------------------------------------------ *)
(* C4c: permanently bad records.  Writes exhaust the retry budget, the
   records are retired, the in-core images are spared onto fresh
   records — no data is lost. *)

let bad_record_plan baseline_image =
  Format.printf "@.C4c  permanently bad records (write sparing):@.";
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.bad_record faults ~pack:0 ~record:5;
  Hw.Fault_inject.bad_record faults ~pack:1 ~record:7;
  Hw.Fault_inject.bad_record faults ~pack:2 ~record:4;
  let _, k, _, ok, finished, _ = run_plan faults in
  if not (ok && finished) then
    fail "bench_chaos: bad-record plan broke the workload";
  let io = report_faults k "bad-rec:" in
  if io.K.Kernel.io_dead_records = 0 then
    fail "bench_chaos: bad records never died";
  if io.K.Kernel.io_spared = 0 then
    fail "bench_chaos: no record was spared";
  if logical_image k <> baseline_image then
    fail "bench_chaos: sparing lost data";
  check_clean_and_sound k "bad-record plan";
  Format.printf "  every bad record spared; contents identical@.";
  Bench_util.recordi ~section:sec ~metric:"badrec_dead" ~unit:"count"
    io.K.Kernel.io_dead_records;
  Bench_util.recordi ~section:sec ~metric:"badrec_spared" ~unit:"count"
    io.K.Kernel.io_spared

(* ------------------------------------------------------------------ *)
(* C4d: scheduled power failure mid-rewrite.  The shadow disk records
   every image actually applied to a platter; after reboot and salvage
   every record whose last application was acknowledged must still hold
   that image, the second scan must be clean, and the file must be
   readable. *)

(* A crash instant that is guaranteed to catch the write-behind buffer
   non-empty: rerun the fault-free timeline with the apply hook on,
   take the median platter-apply instant of the rewrite window, and
   schedule the power failure one nanosecond before it — the batch
   carrying that write is then still in flight when the power dies.
   The empty plan is bit-identical (C4a), so the faulted run reaches
   the same instant in the same state. *)
let crash_instant ~t_checkpoint ~t_end =
  let config = { base_config with K.Kernel.faults = Hw.Fault_inject.none } in
  let k = Bench_util.boot_new ~config () in
  let machine = K.Kernel.machine k in
  let applies = ref [] in
  K.Volume.set_on_apply (K.Kernel.volume k)
    (fun ~pack:_ ~record:_ ~acked:_ _ ->
      applies := Hw.Machine.now machine :: !applies);
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages:seq_pages));
  ignore (K.Kernel.run_to_completion k);
  K.Kernel.checkpoint k;
  ignore (K.Kernel.spawn k ~pname:"rewriter" rewriter_program);
  ignore (K.Kernel.run_to_completion k);
  K.Kernel.shutdown k;
  let window =
    List.filter (fun t -> t > t_checkpoint && t < t_end) !applies
    |> List.sort_uniq compare
  in
  match window with
  | [] -> (t_checkpoint + t_end) / 2
  | w -> List.nth w (List.length w / 2) - 1

let crash_plan ~t_end ~t_checkpoint =
  let at_ns = crash_instant ~t_checkpoint ~t_end in
  Format.printf "@.C4d  power failure at %d ns (mid-rewrite):@." at_ns;
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.power_fail faults ~at_ns ~surviving_writes:0;
  let config = { base_config with K.Kernel.faults } in
  let k = Bench_util.boot_new ~config () in
  (* Shadow disk: last applied image per record, and whether that
     application was acknowledged to the kernel.  Images are immutable,
     so the shadow keeps the applied image itself. *)
  let shadow = Hashtbl.create 256 in
  K.Volume.set_on_apply (K.Kernel.volume k) (fun ~pack ~record ~acked img ->
      Hashtbl.replace shadow (pack, record) (img, acked));
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages:seq_pages));
  (* The crash event has sat in the queue since boot; an unbounded run
     would drain straight through the idle gap between phases and fire
     it with empty buffers.  Bound the writer phase just short of the
     crash instant — the writer's own events all precede it, so the
     simulated timeline is unchanged. *)
  K.Kernel.run ~until:(at_ns - 1) k;
  if not (K.User_process.all_done (K.Kernel.user_process k)) then
    fail "bench_chaos: writer did not complete before the crash window";
  K.Kernel.checkpoint k;
  ignore (K.Kernel.spawn k ~pname:"rewriter" rewriter_program);
  ignore (K.Kernel.run_to_completion k);
  if not (K.Kernel.halted k) then
    fail "bench_chaos: scheduled power failure never fired";
  Format.printf "  machine froze at %d ns@." (K.Kernel.now k);
  let k2 =
    K.Kernel.reboot
      { config with K.Kernel.faults = Hw.Fault_inject.none }
      ~from:k
  in
  let findings = K.Salvager.scan k2 in
  let torn =
    List.length
      (List.filter (fun f -> f.K.Salvager.f_kind = K.Salvager.Torn_write)
         findings)
  in
  let repaired = K.Salvager.repair k2 in
  Format.printf "  salvager: %d findings (%d torn writes), %d repaired@."
    (List.length findings) torn repaired;
  if torn = 0 then
    fail "bench_chaos: the crash tore no write — instant missed the buffer";
  check_clean_and_sound k2 "crash plan";
  (* Every acked write survived: if a record's last applied image was
     acknowledged and the salvager did not free it as leaked, it still
     holds exactly that image. *)
  let d = (K.Kernel.machine k2).Hw.Machine.disk in
  let checked = ref 0 in
  Hashtbl.iter
    (fun (pack, record) (img, acked) ->
      if acked && not (Hw.Disk.record_is_free d ~pack ~record) then begin
        incr checked;
        if not (Hw.Page_image.equal (Hw.Disk.read_record d ~pack ~record) img)
        then
          fail "bench_chaos: acked write to (%d,%d) lost at the crash" pack
            record
      end)
    shadow;
  Format.printf "  %d acked writes verified on the surviving disk@." !checked;
  if !checked = 0 then fail "bench_chaos: no acked writes to verify";
  (* The file is whole and readable in the new incarnation. *)
  ignore (K.Kernel.spawn k2 ~pname:"reader" reader_program);
  if not (K.Kernel.run_to_completion k2) then
    fail "bench_chaos: file unreadable after crash recovery";
  K.Kernel.shutdown k2;
  Bench_util.recordi ~section:sec ~metric:"crash_at_ns" at_ns;
  Bench_util.recordi ~section:sec ~metric:"crash_torn_writes" ~unit:"count"
    torn;
  Bench_util.recordi ~section:sec ~metric:"crash_repaired" ~unit:"count"
    repaired;
  Bench_util.recordi ~section:sec ~metric:"crash_acked_verified"
    ~unit:"count" !checked

(* ------------------------------------------------------------------ *)
(* C4e: a pack drops offline mid-run.  Touching processes take a
   damaged-page fault (never garbage), the operator hears about it
   once, and the rest of the system settles. *)

let offline_plan ~t_checkpoint ~t_end ~pack =
  let at_ns = (t_checkpoint + t_end) / 2 in
  Format.printf "@.C4e  pack %d (holding the file) offline at %d ns:@." pack
    at_ns;
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.pack_offline faults ~pack ~at_ns;
  (* Inline the phases rather than reusing [run_plan]: a clean shutdown
     persists the hierarchy, and the hierarchy lives on the very pack
     we took away — there is nowhere to persist it to.  An operator in
     this situation salvages the live system; so do we. *)
  let config = { base_config with K.Kernel.faults } in
  let k = Bench_util.boot_new ~config () in
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages:seq_pages));
  let ok_w = K.Kernel.run_to_completion k in
  if not ok_w then fail "bench_chaos: writer failed before the offline event";
  K.Kernel.checkpoint k;
  ignore (K.Kernel.spawn k ~pname:"rewriter" rewriter_program);
  ignore (K.Kernel.run_to_completion k);
  ignore (K.Kernel.spawn k ~pname:"reader" reader_program);
  ignore (K.Kernel.run_to_completion k);
  let settled =
    List.for_all
      (fun (p : K.User_process.proc) ->
        match p.K.User_process.pstate with
        | K.User_process.P_done | K.User_process.P_failed _ -> true
        | _ -> false)
      (K.User_process.procs (K.Kernel.user_process k))
  in
  if not settled then
    fail "bench_chaos: offline pack left processes stuck";
  let io = report_faults k "offline:" in
  if io.K.Kernel.io_offline = 0 then
    fail "bench_chaos: offline event never surfaced";
  ignore (K.Salvager.repair k);
  (match K.Invariants.check k with
  | [] -> ()
  | problems ->
      List.iter (Format.printf "  invariant: %s@.") problems;
      fail "bench_chaos: offline plan left broken invariants");
  Format.printf "  system settled; offline pack reported upward@.";
  Bench_util.recordi ~section:sec ~metric:"offline_signals" ~unit:"count"
    io.K.Kernel.io_offline;
  Bench_util.recordi ~section:sec ~metric:"offline_damaged" ~unit:"count"
    io.K.Kernel.io_damaged

let run () =
  Bench_util.section "C4"
    "Chaos: fault injection, retry + sparing, crash recovery";
  let t_end, t_checkpoint, baseline_image, pack = empty_plan () in
  transient_plan baseline_image;
  bad_record_plan baseline_image;
  crash_plan ~t_end ~t_checkpoint;
  offline_plan ~t_checkpoint ~t_end ~pack;
  Bench_util.write_section_metrics ~section:sec ~path:"BENCH_chaos_c4.json"
