module Hw = Multics_hw

type kind =
  | Stale_entry
  | Quota_mismatch
  | Orphan_vtoc
  | Leaked_record
  | Damaged_page
  | Torn_write

type finding = { f_kind : kind; f_detail : string; f_repairable : bool }

let kind_to_string = function
  | Stale_entry -> "stale-entry"
  | Quota_mismatch -> "quota-mismatch"
  | Orphan_vtoc -> "orphan-vtoc"
  | Leaked_record -> "leaked-record"
  | Damaged_page -> "damaged-page"
  | Torn_write -> "torn-write"

let pp_finding ppf f =
  Format.fprintf ppf "%-16s %s%s" (kind_to_string f.f_kind) f.f_detail
    (if f.f_repairable then "" else " (needs operator)")

let scan kernel =
  (* The salvager runs because something went wrong — count the dump
     point before the scan. *)
  Multics_obs.Sink.note_dump (Kernel.obs kernel);
  let findings = ref [] in
  let note f_kind f_repairable fmt =
    Format.kasprintf
      (fun f_detail -> findings := { f_kind; f_detail; f_repairable } :: !findings)
      fmt
  in
  let volume = Kernel.volume kernel in
  let dm = Kernel.directory kernel in
  let disk = (Kernel.machine kernel).Hw.Machine.disk in

  (* 1. Directory entries vs. the locator. *)
  List.iter
    (fun (uid, pack, index) ->
      match Volume.locate volume ~uid with
      | None ->
          note Stale_entry false "entry for uid %d points at (%d,%d) but the \
                                  segment is gone"
            (Ids.to_int uid) pack index
      | Some (real_pack, real_index) ->
          if (real_pack, real_index) <> (pack, index) then
            note Stale_entry true
              "entry for uid %d records (%d,%d); segment now at (%d,%d)"
              (Ids.to_int uid) pack index real_pack real_index)
    (Directory.entries_index dm);

  (* 2. Damaged pages and torn writes: records lost to media errors, or
     caught mid-flush by a power failure, still named by file maps. *)
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (index, (vtoc : Hw.Disk.vtoc_entry)) ->
        Array.iteri
          (fun pageno handle ->
            if handle >= 0 then begin
              let hp = Hw.Disk.pack_of_handle handle in
              let hr = Hw.Disk.record_of_handle handle in
              if Hw.Disk.record_is_dead disk ~pack:hp ~record:hr then
                note Damaged_page true
                  "uid %d page %d at (%d,%d): record %d of pack %d is dead"
                  vtoc.Hw.Disk.uid pageno pack index hr hp
              else if Hw.Disk.record_is_torn disk ~pack:hp ~record:hr then
                note Torn_write true
                  "uid %d page %d at (%d,%d): record %d of pack %d tore at \
                   the crash"
                  vtoc.Hw.Disk.uid pageno pack index hr hp
            end)
          vtoc.Hw.Disk.file_map;
        if vtoc.Hw.Disk.damaged then
          note Damaged_page true "uid %d at (%d,%d): damaged switch set"
            vtoc.Hw.Disk.uid pack index)
      (Hw.Disk.vtoc_entries disk ~pack)
  done;

  (* 3. Quota cells vs. recomputation. *)
  let expected = Invariants.expected_quota kernel in
  List.iter
    (fun (cell, used, _limit) ->
      match List.assoc_opt cell expected with
      | Some pages when pages <> used ->
          note Quota_mismatch true "cell %d counts %d pages; recount says %d"
            cell used pages
      | _ -> ())
    (Quota_cell.registered (Kernel.quota kernel));

  (* 4. Orphan VTOC entries: on disk but in no directory (and not a
     live process-state segment or the root). *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun (uid, _, _) -> Hashtbl.replace named (Ids.to_int uid) ())
    (Directory.entries_index dm);
  Hashtbl.replace named (Ids.to_int (Directory.root_uid dm)) ();
  List.iter
    (fun uid -> Hashtbl.replace named (Ids.to_int uid) ())
    (User_process.state_uids (Kernel.user_process kernel));
  let referenced_records = Hashtbl.create 128 in
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (index, (vtoc : Hw.Disk.vtoc_entry)) ->
        Array.iter
          (fun handle ->
            if handle >= 0 then Hashtbl.replace referenced_records handle ())
          vtoc.Hw.Disk.file_map;
        if not (Hashtbl.mem named vtoc.Hw.Disk.uid) then
          if vtoc.Hw.Disk.is_process_state then
            (* A dead incarnation's process state: reclaimable without
               an operator, as Multics reclaimed [>pdd] at bootload. *)
            note Orphan_vtoc true
              "uid %d at (%d,%d): process state of a dead incarnation"
              vtoc.Hw.Disk.uid pack index
          else
            note Orphan_vtoc false
              "uid %d at (%d,%d): %d pages, named nowhere" vtoc.Hw.Disk.uid
              pack index (Hw.Disk.len_pages vtoc))
      (Hw.Disk.vtoc_entries disk ~pack)
  done;

  (* 5. Leaked records: allocated but referenced by no file map.  Dead
     records are retired, not leaked — they never return to the
     allocator. *)
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    for record = 0 to Hw.Disk.records_per_pack disk - 1 do
      if
        (not (Hw.Disk.record_is_free disk ~pack ~record))
        && not (Hw.Disk.record_is_dead disk ~pack ~record)
      then begin
        let handle = Hw.Disk.handle ~pack ~record in
        if not (Hashtbl.mem referenced_records handle) then
          note Leaked_record true "record %d of pack %d allocated but \
                                   unreferenced"
            record pack
      end
    done
  done;
  List.rev !findings

let repair kernel =
  let volume = Kernel.volume kernel in
  let dm = Kernel.directory kernel in
  let quota = Kernel.quota kernel in
  let disk = (Kernel.machine kernel).Hw.Machine.disk in
  let repaired = ref 0 in
  (* Stale entries: deliver the update the lost signal would have. *)
  List.iter
    (fun (uid, pack, index) ->
      match Volume.locate volume ~uid with
      | Some (real_pack, real_index)
        when (real_pack, real_index) <> (pack, index) ->
          Directory.handle_segment_moved dm ~uid
            ~new_pack:real_pack ~new_index:real_index;
          incr repaired
      | _ -> ())
    (Directory.entries_index dm);
  (* Damaged pages: the content is gone, so the page becomes a page of
     zeros — keeping the quota charge stable — and the damaged switch
     clears.  Torn writes: records are write-atomic, so a torn record
     still holds its last complete (pre-crash) image; accepting it just
     clears the mark.  Both run before the quota recount. *)
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (index, (vtoc : Hw.Disk.vtoc_entry)) ->
        Array.iteri
          (fun pageno handle ->
            if
              handle >= 0
              && Hw.Disk.record_is_dead disk
                   ~pack:(Hw.Disk.pack_of_handle handle)
                   ~record:(Hw.Disk.record_of_handle handle)
            then begin
              Volume.set_file_map_entry volume ~pack ~index
                ~pageno Hw.Disk.zero_page;
              incr repaired
            end)
          vtoc.Hw.Disk.file_map;
        if vtoc.Hw.Disk.damaged then begin
          vtoc.Hw.Disk.damaged <- false;
          incr repaired
        end)
      (Hw.Disk.vtoc_entries disk ~pack);
    List.iter
      (fun record ->
        Hw.Disk.clear_torn disk ~pack ~record;
        incr repaired)
      (Hw.Disk.torn_records disk ~pack)
  done;
  (* Segments already active — the directory hierarchy was read back at
     reboot, before this salvage — built damaged descriptors from the
     dead/torn marks just cleared.  Re-derive them from the repaired
     file maps so a later touch or persist sees the accepted image, not
     a connection failure. *)
  repaired := !repaired + Segment.heal_damaged (Kernel.segment kernel)
                           ;
  (* Quota recount. *)
  let expected = Invariants.expected_quota kernel in
  List.iter
    (fun (cell, used, _limit) ->
      match List.assoc_opt cell expected with
      | Some pages when pages <> used ->
          if used > pages then
            Quota_cell.uncharge quota cell (used - pages)
          else
            ignore (Quota_cell.charge quota cell (pages - used));
          incr repaired
      | _ -> ())
    (Quota_cell.registered quota);
  (* Orphan process-state segments of the dead incarnation. *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun (uid, _, _) -> Hashtbl.replace named (Ids.to_int uid) ())
    (Directory.entries_index dm);
  Hashtbl.replace named (Ids.to_int (Directory.root_uid dm)) ();
  List.iter
    (fun uid -> Hashtbl.replace named (Ids.to_int uid) ())
    (User_process.state_uids (Kernel.user_process kernel));
  let orphans = ref [] in
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (index, (vtoc : Hw.Disk.vtoc_entry)) ->
        if
          vtoc.Hw.Disk.is_process_state
          && not (Hashtbl.mem named vtoc.Hw.Disk.uid)
        then orphans := (pack, index) :: !orphans)
      (Hw.Disk.vtoc_entries disk ~pack)
  done;
  List.iter
    (fun (pack, index) ->
      Volume.delete_segment volume ~pack ~index;
      incr repaired)
    !orphans;
  (* Leaked records.  Dead records are retired, not leaked. *)
  let referenced = Hashtbl.create 128 in
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (_, (vtoc : Hw.Disk.vtoc_entry)) ->
        Array.iter
          (fun handle ->
            if handle >= 0 then Hashtbl.replace referenced handle ())
          vtoc.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries disk ~pack)
  done;
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    for record = 0 to Hw.Disk.records_per_pack disk - 1 do
      if
        (not (Hw.Disk.record_is_free disk ~pack ~record))
        && (not (Hw.Disk.record_is_dead disk ~pack ~record))
        && not (Hashtbl.mem referenced (Hw.Disk.handle ~pack ~record))
      then begin
        Hw.Disk.free_record disk ~pack ~record;
        incr repaired
      end
    done
  done;
  !repaired
