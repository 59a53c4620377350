module Hw = Multics_hw

let expected_quota kernel =
  let volume = Kernel.volume kernel in
  let quota = Kernel.quota kernel in
  let attribution = Directory.quota_attribution (Kernel.directory kernel) in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (uid, cell) ->
      if cell <> Quota_cell.no_cell then
        match Volume.locate volume ~uid with
        | None -> ()
        | Some (pack, index) -> (
            match Volume.vtoc volume ~pack ~index with
            | exception Not_found -> ()
            | vtoc ->
                let pages =
                  Array.fold_left
                    (fun acc v -> if v <> Hw.Disk.unallocated then acc + 1 else acc)
                    0 vtoc.Hw.Disk.file_map
                in
                let old = Option.value ~default:0 (Hashtbl.find_opt totals cell) in
                Hashtbl.replace totals cell (old + pages)))
    attribution;
  (* Cells with no attributed pages still count, at zero. *)
  List.map
    (fun (cell, _used, _limit) ->
      (cell, Option.value ~default:0 (Hashtbl.find_opt totals cell)))
    (Quota_cell.registered quota)

let check kernel =
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let machine = Kernel.machine kernel in
  let mem = machine.Hw.Machine.mem in
  let pfm = Kernel.page_frame kernel in
  let sm = Kernel.segment kernel in
  let volume = Kernel.volume kernel in
  let quota = Kernel.quota kernel in

  (* 1. Frame table vs. page tables: a used frame's PTW must be present
     and point back at the frame. *)
  let used = ref 0 in
  Page_frame.iter_used pfm (fun ~frame ~ptw_abs ->
      incr used;
      let ptw = Hw.Ptw.read mem ptw_abs in
      if not ptw.Hw.Ptw.valid then
        problem "frame %d: owning PTW %d invalid" frame ptw_abs
      else if not ptw.Hw.Ptw.present then
        (* a transit in flight is the one legitimate case *)
        ()
      else if ptw.Hw.Ptw.arg <> frame then
        problem "frame %d: PTW points at frame %d" frame ptw.Hw.Ptw.arg);
  if !used + Page_frame.free_frames pfm <> Page_frame.n_frames pfm then
    problem "frame accounting: %d used + %d free <> %d total" !used
      (Page_frame.free_frames pfm) (Page_frame.n_frames pfm);

  (* 2. AST vs. locator. *)
  List.iter
    (fun slot ->
      let uid = Segment.slot_uid sm ~slot in
      let home = Segment.slot_home sm ~slot in
      match Volume.locate volume ~uid with
      | None -> problem "AST slot %d: uid %d not in locator" slot (Ids.to_int uid)
      | Some located ->
          if located <> home then
            problem "AST slot %d: home %s but locator says %s" slot
              (Printf.sprintf "(%d,%d)" (fst home) (snd home))
              (Printf.sprintf "(%d,%d)" (fst located) (snd located)))
    (Segment.active_slots sm);

  (* 3. Record accounting across every VTOC: no double references, every
     reference allocated. *)
  let disk = machine.Hw.Machine.disk in
  let seen = Hashtbl.create 64 in
  for pack = 0 to Hw.Disk.n_packs disk - 1 do
    List.iter
      (fun (index, (vtoc : Hw.Disk.vtoc_entry)) ->
        Array.iteri
          (fun pageno handle ->
            if handle >= 0 then begin
              (match Hashtbl.find_opt seen handle with
              | Some (other_uid : int) ->
                  problem "record %d referenced by uid %d and uid %d" handle
                    other_uid vtoc.Hw.Disk.uid
              | None -> Hashtbl.replace seen handle vtoc.Hw.Disk.uid);
              if
                Hw.Disk.record_is_free disk
                  ~pack:(Hw.Disk.pack_of_handle handle)
                  ~record:(Hw.Disk.record_of_handle handle)
              then
                problem "uid %d page %d references free record %d (vtoc %d)"
                  vtoc.Hw.Disk.uid pageno handle index
            end)
          vtoc.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries disk ~pack)
  done;

  (* 4. VP state words: the wired core-segment mirror of each VP state
     must encode the manager's in-record state. *)
  let vpm = Kernel.vp kernel in
  for i = 0 to Vp.n_vps vpm - 1 do
    if not (Vp.state_word_agrees vpm i) then
      problem "vp %d: wired state word disagrees with manager state" i
  done;

  (* 5. Ready-queue sanity: every enqueued pid names a live, ready
     process, and no pid is queued twice.  A done process in the queue
     would be a use-after-reap; a blocked one a phantom wakeup. *)
  let upm = Kernel.user_process kernel in
  let queued = Scheduler.enqueued (User_process.scheduler upm) in
  let seen_pids = Hashtbl.create 8 in
  List.iter
    (fun pid ->
      if Hashtbl.mem seen_pids pid then
        problem "ready queue: pid %d enqueued twice" pid
      else Hashtbl.replace seen_pids pid ();
      match User_process.proc upm pid with
      | exception Invalid_argument _ ->
          problem "ready queue: pid %d does not exist" pid
      | p -> (
          match p.User_process.pstate with
          | User_process.P_ready -> ()
          | User_process.P_running ->
              problem "ready queue: pid %d is running on a VP" pid
          | User_process.P_blocked ->
              problem "ready queue: pid %d is blocked" pid
          | User_process.P_done | User_process.P_failed _ ->
              problem "ready queue: pid %d already finished" pid))
    queued;

  (* 6. Quota: each registered cell's count equals the allocated pages
     it controls. *)
  let expected = expected_quota kernel in
  List.iter
    (fun (cell, used, limit) ->
      if used < 0 || used > limit then
        problem "quota cell %d: used %d outside [0, %d]" cell used limit;
      match List.assoc_opt cell expected with
      | Some pages when pages <> used ->
          problem "quota cell %d: counts %d but controls %d allocated pages"
            cell used pages
      | _ -> ())
    (Quota_cell.registered quota);

  (* A violated invariant is exactly what the flight recorder exists
     for: count the dump point; the report's reader renders the ring. *)
  if !problems <> [] then
    Multics_obs.Sink.note_dump (Kernel.obs kernel);
  List.rev !problems
