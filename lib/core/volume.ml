module Hw = Multics_hw

type t = {
  machine : Hw.Machine.t;
  acct : Meter.account;
  io : Hw.Io_sched.t;
  locator : (int, int * int) Hashtbl.t;  (* uid -> (pack, vtoc index) *)
  mutable full_pack_count : int;
  signals : Upward_signal.t;
  (* pack -> the scheduler's recovery count when its last offline
     signal went up: a grown count means a new offline window. *)
  offline_signalled : (int, int) Hashtbl.t;
  mutable offline_signal_count : int;  (* monotone: one per offline window *)
  mutable spared : int;
  mutable damaged : int;
}

let name = Registry.disk_pack_manager

let entry t base_cost =
  Meter.charge t.acct (Registry.language name)
    (Cost.kernel_call + base_cost)

let create ?(faults = Hw.Fault_inject.none) ?choice ?io_config ~machine
    ~meter ~signals () =
  let io =
    Hw.Io_sched.create ?config:io_config ~disk:machine.Hw.Machine.disk
      ~faults ?choice
      ~now:(fun () -> Hw.Machine.now machine)
      ~schedule:(Hw.Machine.schedule machine) ()
  in
  (* The arm's busy time is device time, not kernel time: the
     scheduler's own [s_busy_ns] keeps it, and nothing books it into
     the meter.  The machine's sink is installed before any manager is
     created, so capturing it here wires the elevator's batch spans to
     the kernel's trace. *)
  Hw.Io_sched.set_obs io (Hw.Machine.obs machine);
  { machine; acct = Meter.account meter name; io; locator = Hashtbl.create 64;
    full_pack_count = 0; signals;
    offline_signalled = Hashtbl.create 4; offline_signal_count = 0;
    spared = 0; damaged = 0 }

let locate t ~uid = Hashtbl.find_opt t.locator (Ids.to_int uid)


let disk t = t.machine.Hw.Machine.disk

let rebuild_locator t =
  Hashtbl.reset t.locator;
  let max_uid = ref 0 in
  let d = disk t in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (index, (e : Hw.Disk.vtoc_entry)) ->
        Hashtbl.replace t.locator e.Hw.Disk.uid (pack, index);
        max_uid := max !max_uid e.Hw.Disk.uid)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !max_uid

let create_segment t ?(process_state = false) ~uid ~pack ~is_directory
    ~label () =
  entry t Cost.vtoc_write;
  let map = Array.make Hw.Addr.max_pages_per_segment Hw.Disk.unallocated in
  let index =
    Hw.Disk.create_vtoc_entry (disk t) ~pack
      { Hw.Disk.uid = Ids.to_int uid; file_map = map;
        is_directory; quota = None; aim_label = label; damaged = false;
        is_process_state = process_state }
  in
  Hashtbl.replace t.locator (Ids.to_int uid) (pack, index);
  index

(* File maps store 18-bit record handles (pack and record id), or the
   negative flags [Hw.Disk.zero_page] / [Hw.Disk.unallocated]. *)

let delete_segment t ~pack ~index =
  entry t Cost.vtoc_write;
  let entry_ = Hw.Disk.vtoc_entry (disk t) ~pack ~index in
  Array.iter
    (fun handle ->
      if handle >= 0 then begin
        let pack = Hw.Disk.pack_of_handle handle in
        let record = Hw.Disk.record_of_handle handle in
        Hw.Io_sched.cancel_writes t.io ~pack ~record;
        Hw.Disk.free_record (disk t) ~pack ~record
      end)
    entry_.Hw.Disk.file_map;
  Hashtbl.remove t.locator entry_.Hw.Disk.uid;
  Hw.Disk.delete_vtoc_entry (disk t) ~pack ~index

let vtoc t ~pack ~index =
  entry t Cost.vtoc_read;
  Hw.Disk.vtoc_entry (disk t) ~pack ~index

let alloc_page_record t ~pack =
  (* Record allocation is a free-list operation, not an I/O. *)
  entry t Cost.frame_alloc;
  match Hw.Disk.alloc_record (disk t) ~pack with
  | record -> Ok record
  | exception Hw.Disk.Pack_full _ ->
      t.full_pack_count <- t.full_pack_count + 1;
      Error `Pack_full

let free_page_record t ~pack ~record =
  entry t Cost.frame_alloc;
  (* A write-behind of the dying page must not land on this record
     once it is reallocated. *)
  Hw.Io_sched.cancel_writes t.io ~pack ~record;
  Hw.Disk.free_record (disk t) ~pack ~record

(* The synchronous API is a shim over the scheduler: reads observe the
   write-behind buffer, writes supersede any queued flush of the same
   record.  Callers account for the transfer latency themselves. *)

let read_page t ~handle =
  entry t Cost.disk_io_setup;
  Hw.Io_sched.read_now t.io
    ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle)

let write_page t ~handle img =
  entry t Cost.disk_io_setup;
  Hw.Io_sched.write_now t.io
    ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle)
    img

let read_record_async t ~handle ~done_ =
  entry t Cost.disk_io_setup;
  Hw.Io_sched.submit_read t.io
    ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle)
    ~done_

let write_record_async t ?done_ ~handle img =
  entry t Cost.disk_io_setup;
  Hw.Io_sched.submit_write t.io ?done_
    ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle)
    img

let quiesce t = Hw.Io_sched.quiesce t.io
let crash t ~surviving_writes = Hw.Io_sched.crash t.io ~surviving_writes
let set_on_apply t f = Hw.Io_sched.set_on_apply t.io f
let io_stats t = Hw.Io_sched.stats t.io
let breaker_state t ~pack = Hw.Io_sched.breaker_state t.io ~pack
let io_latency_ns t = Hw.Io_sched.single_transfer_ns t.io

(* ------------------------------------------------------------------ *)
(* Error handling: sparing, damage, offline signalling. *)

(* One signal per offline window.  A breaker that closed after a
   successful half-open probe since the last signal means the pack
   served again in between, so this outage is a new window. *)
let note_offline t ~pack =
  let recoveries = Hw.Io_sched.recoveries t.io ~pack in
  match Hashtbl.find_opt t.offline_signalled pack with
  | Some seen when seen = recoveries -> ()
  | Some _ | None ->
      Hashtbl.replace t.offline_signalled pack recoveries;
      t.offline_signal_count <- t.offline_signal_count + 1;
      Upward_signal.raise_signal t.signals ~from:name
        (Upward_signal.Pack_offline { pack })

let offline_signals t = t.offline_signal_count

let spare_record t ~old_handle img =
  entry t (Cost.frame_alloc + Cost.disk_io_setup);
  let d = disk t in
  let pack = Hw.Disk.pack_of_handle old_handle in
  let old_record = Hw.Disk.record_of_handle old_handle in
  (* The dying record: drop any buffered flush, then retire it (it is
     already marked dead, so free never re-lists it). *)
  Hw.Io_sched.cancel_writes t.io ~pack ~record:old_record;
  Hw.Disk.free_record d ~pack ~record:old_record;
  (* The spare stays on the same pack — all pages of a segment live on
     one pack.  A freshly allocated record can itself be bad, so bound
     the alloc-and-write attempts. *)
  let rec alloc_and_write tries =
    if tries = 0 then Error `No_space
    else
      match Hw.Disk.alloc_record d ~pack with
      | exception Hw.Disk.Pack_full _ ->
          t.full_pack_count <- t.full_pack_count + 1;
          Error `No_space
      | record -> (
          match Hw.Io_sched.write_now t.io ~pack ~record img with
          | Ok () ->
              t.spared <- t.spared + 1;
              Meter.charge_raw t.acct (io_latency_ns t);
              Ok (Hw.Disk.handle ~pack ~record)
          | Error _ -> alloc_and_write (tries - 1))
  in
  alloc_and_write 4

let spared_records t = t.spared

let mark_damaged t ~pack ~index =
  entry t Cost.vtoc_write;
  t.damaged <- t.damaged + 1;
  match Hw.Disk.vtoc_entry (disk t) ~pack ~index with
  | e -> e.Hw.Disk.damaged <- true
  | exception Not_found -> ()

let damaged_pages t = t.damaged

let pick_emptier_pack t ~except = Hw.Disk.emptiest_pack (disk t) ~except

let move_segment t ~pack ~index ~to_pack =
  let d = disk t in
  let old_entry = Hw.Disk.vtoc_entry d ~pack ~index in
  let n_records =
    Array.fold_left
      (fun acc r -> if r >= 0 then acc + 1 else acc)
      0 old_entry.Hw.Disk.file_map
  in
  entry t (Cost.vtoc_write + (n_records * Cost.disk_io_setup));
  if Hw.Disk.free_records d ~pack:to_pack < n_records then Error `No_space
  else begin
    (* Copy each allocated record; zero pages stay flags in the map. *)
    let new_map =
      Array.map
        (fun handle ->
          if handle < 0 then handle
          else begin
            let old_pack = Hw.Disk.pack_of_handle handle in
            let old_record = Hw.Disk.record_of_handle handle in
            (* Through the scheduler shims so the copy observes any
               write-behind still queued for the old record. *)
            match
              Hw.Io_sched.read_now t.io ~pack:old_pack ~record:old_record
            with
            | Error _ ->
                (* The page is gone; keep the dead handle in the map so
                   the salvager finds and repairs the damage. *)
                t.damaged <- t.damaged + 1;
                old_entry.Hw.Disk.damaged <- true;
                handle
            | Ok img -> (
                let new_record = Hw.Disk.alloc_record d ~pack:to_pack in
                match
                  Hw.Io_sched.write_now t.io ~pack:to_pack ~record:new_record
                    img
                with
                | Ok () ->
                    Hw.Io_sched.cancel_writes t.io ~pack:old_pack
                      ~record:old_record;
                    Hw.Disk.free_record d ~pack:old_pack ~record:old_record;
                    Hw.Disk.handle ~pack:to_pack ~record:new_record
                | Error _ ->
                    (* The fresh record went dead under us; keep the
                       original, still-good copy where it is.  Mixed
                       packs are a relocation transient the file map
                       tolerates (handles name their own pack). *)
                    handle)
          end)
        old_entry.Hw.Disk.file_map
    in
    Hw.Disk.delete_vtoc_entry d ~pack ~index;
    let new_index =
      Hw.Disk.create_vtoc_entry d ~pack:to_pack
        { old_entry with Hw.Disk.file_map = new_map }
    in
    Hashtbl.replace t.locator old_entry.Hw.Disk.uid (to_pack, new_index);
    (* The record transfers take real time: charge the meter for the
       overlapped copies. *)
    Meter.charge_raw t.acct
      (n_records * (io_latency_ns t / 4));
    Ok (to_pack, new_index, n_records)
  end

let set_file_map_entry t ~pack ~index ~pageno value =
  entry t Cost.vtoc_write;
  let e = Hw.Disk.vtoc_entry (disk t) ~pack ~index in
  e.Hw.Disk.file_map.(pageno) <- value

let full_pack_exceptions t = t.full_pack_count
