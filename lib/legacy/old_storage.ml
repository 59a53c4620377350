module K = Multics_kernel
module Hw = Multics_hw
module Sync = Multics_sync
open Old_types

let mem t = t.machine.Hw.Machine.mem
let disk t = t.machine.Hw.Machine.disk
let now t = Hw.Machine.now t.machine

type fault_outcome =
  | O_retry
  | O_wait of Sync.Eventcount.t * int
  | O_error of string

let pt_area_base t = t.ast.(0).oe_pt_base
let ast_of_ptw t ptw_abs = (ptw_abs - pt_area_base t) / t.pt_words
let pageno_of_ptw t ptw_abs = (ptw_abs - pt_area_base t) mod t.pt_words

(* ------------------------------------------------------------------ *)
(* Volume + directory-entry creation (the old design interleaves them) *)

let rec create_segment t ~dir_uid ~name ~is_dir ~acl =
  match Hashtbl.find_opt t.dirs dir_uid with
  | None -> Error `No_access
  | Some dir ->
      if Hashtbl.mem dir.odir_entries name then Error `Name_duplicated
      else begin
        charge_asm t ~manager:disk_volume_control K.Cost.vtoc_write;
        let uid = fresh_uid t in
        let pack =
          (* new segments land on the directory's pack *)
          match locate_dir_pack t dir with Some p -> p | None -> 0
        in
        let map = Array.make Hw.Addr.max_pages_per_segment Hw.Disk.unallocated in
        let vtoc =
          Hw.Disk.create_vtoc_entry (disk t) ~pack
            { Hw.Disk.uid; file_map = map;
              is_directory = is_dir; quota = None; aim_label = 0;
              damaged = false; is_process_state = false }
        in
        let de =
          { od_name = name; od_uid = uid; od_is_dir = is_dir; od_pack = pack;
            od_vtoc = vtoc; od_acl = acl }
        in
        Hashtbl.replace dir.odir_entries name de;
        if is_dir then
          Hashtbl.replace t.dirs uid
            { odir_uid = uid; odir_parent = dir_uid; odir_is_quota = false;
              odir_entries = Hashtbl.create 8; odir_acl = acl;
              odir_depth = dir.odir_depth + 1 };
        charge_pl1 t ~manager:directory_control K.Cost.directory_entry_op;
        Ok de
      end

and locate_dir_pack t dir =
  (* A directory's own pack: found through its parent's entry. *)
  if dir.odir_parent < 0 then Some 0
  else
    match Hashtbl.find_opt t.dirs dir.odir_parent with
    | None -> None
    | Some parent ->
        Hashtbl.fold
          (fun _ de acc ->
            if de.od_uid = dir.odir_uid then Some de.od_pack else acc)
          parent.odir_entries None

let locate t ~uid =
  (* Scan the directory records: segment control reading directory
     control's data base. *)
  share t ~from:segment_control ~to_:directory_control;
  charge_asm t ~manager:segment_control K.Cost.directory_entry_op;
  let found = ref None in
  Hashtbl.iter
    (fun _ dir ->
      Hashtbl.iter
        (fun _ de -> if de.od_uid = uid then found := Some (de.od_pack, de.od_vtoc))
        dir.odir_entries)
    t.dirs;
  (* The root itself has no entry anywhere. *)
  (match !found with
  | None when uid = t.root_uid -> found := Some (0, 0)
  | _ -> ());
  !found

let find_active t ~uid =
  let found = ref None in
  Array.iteri
    (fun i e -> if e.oe_live && e.oe_uid = uid then found := Some i)
    t.ast;
  !found

(* Directory uid chain: used both for activation (parent links) and the
   quota search. *)
let parent_dir_uid t ~uid =
  let found = ref None in
  Hashtbl.iter
    (fun _ dir ->
      Hashtbl.iter
        (fun _ de -> if de.od_uid = uid then found := Some dir.odir_uid)
        dir.odir_entries)
    t.dirs;
  !found

let build_page_table t ast_index (vtoc : Hw.Disk.vtoc_entry) =
  let e = t.ast.(ast_index) in
  for pageno = 0 to t.pt_words - 1 do
    let handle = vtoc.Hw.Disk.file_map.(pageno) in
    let ptw =
      if handle >= 0 then Hw.Ptw.on_disk ~record:handle
      else Hw.Ptw.unallocated_ptw
    in
    Hw.Ptw.write (mem t) (e.oe_pt_base + pageno) ptw
  done;
  charge_asm t ~manager:segment_control (t.pt_words * K.Cost.ptw_update / 8)

let release_frame t frame =
  let fe = t.frames.(frame) in
  fe.fr_ptw <- -1;
  fe.fr_record <- -1;
  fe.fr_ast <- -1;
  fe.fr_pageno <- -1;
  t.free_frames <- frame :: t.free_frames;
  t.n_free <- t.n_free + 1

(* The dynamic upward quota search: walk AST parent links until a quota
   directory is found.  Page control reading segment control's table,
   whose shape is constrained by directory control. *)
let find_quota_ast t ast_index =
  share t ~from:page_control ~to_:segment_control;
  t.stats.st_quota_searches <- t.stats.st_quota_searches + 1;
  let rec walk i levels =
    charge_asm t ~manager:page_control K.Cost.quota_search_per_level;
    t.stats.st_quota_search_levels <- t.stats.st_quota_search_levels + 1;
    ignore levels;
    let e = t.ast.(i) in
    if e.oe_quota_limit >= 0 then Some i
    else if e.oe_parent < 0 then None
    else walk e.oe_parent (levels + 1)
  in
  walk ast_index 0

(* Zero detection on removal, with the quota credit found by another
   upward search. *)
let evict_frame t frame =
  let fe = t.frames.(frame) in
  let ptw_abs = fe.fr_ptw in
  let ptw = Hw.Ptw.read (mem t) ptw_abs in
  charge_asm t ~manager:page_control K.Cost.frame_scan_zero;
  t.stats.st_evictions <- t.stats.st_evictions + 1;
  if Hw.Phys_mem.frame_is_zero (mem t) frame then begin
    t.stats.st_zero_reclaims <- t.stats.st_zero_reclaims + 1;
    if fe.fr_record >= 0 then
      Hw.Disk.free_record (disk t)
        ~pack:(Hw.Disk.pack_of_handle fe.fr_record)
        ~record:(Hw.Disk.record_of_handle fe.fr_record);
    (match find_quota_ast t fe.fr_ast with
    | Some qi ->
        t.ast.(qi).oe_quota_used <- max 0 (t.ast.(qi).oe_quota_used - 1)
    | None -> ());
    (* Flag the zeros in the file map. *)
    let e = t.ast.(fe.fr_ast) in
    (try
       let vtoc = Hw.Disk.vtoc_entry (disk t) ~pack:e.oe_pack ~index:e.oe_vtoc in
       vtoc.Hw.Disk.file_map.(fe.fr_pageno) <- Hw.Disk.unallocated
     with Not_found -> ());
    Hw.Ptw.write (mem t) ptw_abs Hw.Ptw.unallocated_ptw
  end
  else begin
    if ptw.Hw.Ptw.modified then begin
      t.stats.st_page_writes <- t.stats.st_page_writes + 1;
      charge_asm t ~manager:page_control K.Cost.disk_io_setup;
      Hw.Disk.write_record (disk t)
        ~pack:(Hw.Disk.pack_of_handle fe.fr_record)
        ~record:(Hw.Disk.record_of_handle fe.fr_record)
        (Hw.Phys_mem.read_frame (mem t) frame)
    end;
    Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.on_disk ~record:fe.fr_record)
  end;
  release_frame t frame

let clock_pick t =
  let n = Array.length t.frames in
  let rec scan steps forced =
    if steps > 2 * n then if forced then None else scan 0 true
    else begin
      let i = t.clock_hand in
      t.clock_hand <- (t.clock_hand + 1) mod n;
      charge_asm t ~manager:page_control K.Cost.replacement_scan;
      let fe = t.frames.(i) in
      if fe.fr_ptw < 0 then scan (steps + 1) forced
      else
        let ptw = Hw.Ptw.read (mem t) fe.fr_ptw in
        if ptw.Hw.Ptw.used && not forced then begin
          Hw.Ptw.write (mem t) fe.fr_ptw { ptw with Hw.Ptw.used = false };
          scan (steps + 1) forced
        end
        else Some i
    end
  in
  scan 0 false

let rec acquire_frame t =
  match t.free_frames with
  | frame :: rest ->
      t.free_frames <- rest;
      t.n_free <- t.n_free - 1;
      charge_asm t ~manager:page_control K.Cost.frame_alloc;
      Some frame
  | [] -> (
      match clock_pick t with
      | None -> None
      | Some victim ->
          evict_frame t victim;
          acquire_frame t)

(* Find a deactivation victim for the AST — but never a directory with
   active inferiors: the hierarchy constraint of the old design. *)
let rec find_ast_slot t =
  let free = ref None in
  Array.iteri
    (fun i e -> if (not e.oe_live) && !free = None then free := Some i)
    t.ast;
  match !free with
  | Some i -> Some i
  | None ->
      (* Victim search under pressure: directories with active inferiors
         are pinned by the hierarchy constraint. *)
      let victim = ref None in
      Array.iteri
        (fun i e ->
          if !victim = None && e.oe_active_inferiors = 0 && not e.oe_is_dir
          then victim := Some i
          else if e.oe_is_dir && e.oe_active_inferiors > 0 then
            t.stats.st_deactivation_blocked <-
              t.stats.st_deactivation_blocked + 1)
        t.ast;
      (match !victim with
      | Some i ->
          deactivate_ast t i;
          Some i
      | None -> None)

and deactivate_ast t i =
  let e = t.ast.(i) in
  (* Flush resident pages. *)
  Array.iteri
    (fun frame fe -> if fe.fr_ast = i then evict_frame t frame)
    t.frames;
  (* Persist quota back to the VTOC. *)
  (try
     let vtoc = Hw.Disk.vtoc_entry (disk t) ~pack:e.oe_pack ~index:e.oe_vtoc in
     if e.oe_quota_limit >= 0 then
       vtoc.Hw.Disk.quota <-
         Some { Hw.Disk.limit = e.oe_quota_limit; used = e.oe_quota_used }
   with Not_found -> ());
  if e.oe_parent >= 0 then begin
    let p = t.ast.(e.oe_parent) in
    p.oe_active_inferiors <- p.oe_active_inferiors - 1
  end;
  e.oe_live <- false;
  charge_asm t ~manager:segment_control K.Cost.vtoc_write

and activate t ~uid =
  match find_active t ~uid with
  | Some i -> Ok i
  | None -> (
      match locate t ~uid with
      | None -> Error `Gone
      | Some (pack, vtoc_index) -> (
          (* Activate the superior directory first: segment control
             follows the hierarchy shape. *)
          let parent_ast =
            if uid = t.root_uid then -1
            else
              match parent_dir_uid t ~uid with
              | None -> -1
              | Some parent_uid -> (
                  match activate t ~uid:parent_uid with
                  | Ok i -> i
                  | Error _ -> -1)
          in
          match find_ast_slot t with
          | None -> Error `No_slot
          | Some i ->
              let vtoc = Hw.Disk.vtoc_entry (disk t) ~pack ~index:vtoc_index in
              let e = t.ast.(i) in
              e.oe_uid <- uid;
              e.oe_pack <- pack;
              e.oe_vtoc <- vtoc_index;
              e.oe_parent <- parent_ast;
              e.oe_is_dir <- vtoc.Hw.Disk.is_directory;
              (match Hashtbl.find_opt t.dirs uid with
              | Some dir when dir.odir_is_quota -> (
                  match vtoc.Hw.Disk.quota with
                  | Some q ->
                      e.oe_quota_limit <- q.Hw.Disk.limit;
                      e.oe_quota_used <- q.Hw.Disk.used
                  | None ->
                      e.oe_quota_limit <- 0;
                      e.oe_quota_used <- 0)
              | _ ->
                  e.oe_quota_limit <- -1;
                  e.oe_quota_used <- 0);
              e.oe_active_inferiors <- 0;
              e.oe_live <- true;
              if parent_ast >= 0 then begin
                let p = t.ast.(parent_ast) in
                p.oe_active_inferiors <- p.oe_active_inferiors + 1
              end;
              build_page_table t i vtoc;
              charge_asm t ~manager:segment_control K.Cost.vtoc_read;
              Ok i))

let connect t (p : oproc) ~segno ~ast ~mode =
  let e = t.ast.(ast) in
  let sdw =
    Hw.Sdw.make ~page_table:e.oe_pt_base ~length:t.pt_words
      ~read:mode.K.Acl.read ~write:mode.K.Acl.write
      ~execute:mode.K.Acl.execute ~r1:5 ~r2:5 ~r3:5
  in
  Hw.Sdw.write_at (mem t) (p.op_dseg_base + (segno * Hw.Sdw.words)) sdw;
  share t ~from:address_space_control ~to_:segment_control;
  charge_asm t ~manager:address_space_control K.Cost.ptw_update

(* Full pack during growth: segment control directs relocation and
   directly updates the directory entry (the Figure 3 loop). *)
let relocate t ast_index =
  let e = t.ast.(ast_index) in
  t.stats.st_full_packs <- t.stats.st_full_packs + 1;
  match Hw.Disk.emptiest_pack (disk t) ~except:e.oe_pack with
  | None -> Error `No_space
  | Some to_pack ->
      (* Flush resident pages so records are current. *)
      Array.iteri
        (fun frame fe -> if fe.fr_ast = ast_index then evict_frame t frame)
        t.frames;
      let old_vtoc =
        Hw.Disk.vtoc_entry (disk t) ~pack:e.oe_pack ~index:e.oe_vtoc
      in
      let moved = ref 0 in
      let new_map =
        Array.map
          (fun handle ->
            if handle < 0 then handle
            else begin
              incr moved;
              let img =
                Hw.Disk.read_record (disk t)
                  ~pack:(Hw.Disk.pack_of_handle handle)
                  ~record:(Hw.Disk.record_of_handle handle)
              in
              let record = Hw.Disk.alloc_record (disk t) ~pack:to_pack in
              Hw.Disk.write_record (disk t) ~pack:to_pack ~record img;
              Hw.Disk.free_record (disk t)
                ~pack:(Hw.Disk.pack_of_handle handle)
                ~record:(Hw.Disk.record_of_handle handle);
              Hw.Disk.handle ~pack:to_pack ~record
            end)
          old_vtoc.Hw.Disk.file_map
      in
      Hw.Disk.delete_vtoc_entry (disk t) ~pack:e.oe_pack ~index:e.oe_vtoc;
      let new_index =
        Hw.Disk.create_vtoc_entry (disk t) ~pack:to_pack
          { old_vtoc with Hw.Disk.file_map = new_map }
      in
      charge_asm t ~manager:segment_control
        (!moved * (Hw.Disk.io_latency_ns (disk t) / 4));
      (* Directly update the directory entry: segment control writing
         directory control's data, through an address-space-control
         data base in the real system. *)
      share t ~from:segment_control ~to_:address_space_control;
      share t ~from:segment_control ~to_:directory_control;
      Hashtbl.iter
        (fun _ dir ->
          Hashtbl.iter
            (fun _ de ->
              if de.od_uid = e.oe_uid then begin
                de.od_pack <- to_pack;
                de.od_vtoc <- new_index
              end)
            dir.odir_entries)
        t.dirs;
      e.oe_pack <- to_pack;
      e.oe_vtoc <- new_index;
      build_page_table t ast_index
        (Hw.Disk.vtoc_entry (disk t) ~pack:to_pack ~index:new_index);
      t.stats.st_relocations <- t.stats.st_relocations + 1;
      Ok ()

(* Grow a never-used page: quota search, charge, allocate, zero. *)
let grow t ast_index pageno =
  let e = t.ast.(ast_index) in
  (match find_quota_ast t ast_index with
  | None -> Ok ()
  | Some qi ->
      let q = t.ast.(qi) in
      charge_asm t ~manager:page_control K.Cost.quota_check;
      if q.oe_quota_used + 1 > q.oe_quota_limit then Error `Over_quota
      else begin
        q.oe_quota_used <- q.oe_quota_used + 1;
        Ok ()
      end)
  |> function
  | Error `Over_quota -> O_error "record quota overflow"
  | Ok () -> (
      let alloc () =
        match Hw.Disk.alloc_record (disk t) ~pack:e.oe_pack with
        | record -> Ok (Hw.Disk.handle ~pack:e.oe_pack ~record)
        | exception Hw.Disk.Pack_full _ -> Error `Pack_full
      in
      let handle_result =
        match alloc () with
        | Ok h -> Ok h
        | Error `Pack_full -> (
            match relocate t ast_index with
            | Error `No_space -> Error `No_space
            | Ok () -> (
                match alloc () with
                | Ok h -> Ok h
                | Error `Pack_full -> Error `No_space))
      in
      match handle_result with
      | Error `No_space ->
          (match find_quota_ast t ast_index with
          | Some qi ->
              t.ast.(qi).oe_quota_used <- t.ast.(qi).oe_quota_used - 1
          | None -> ());
          O_error "no space on any pack"
      | Ok handle -> (
          (* The VTOC entry can be gone: another process may have
             deleted the segment while this one still had a stale SDW —
             the old design never severed connections on delete. *)
          match
            Hw.Disk.vtoc_entry (disk t) ~pack:e.oe_pack ~index:e.oe_vtoc
          with
          | exception Not_found ->
              Hw.Disk.free_record (disk t)
                ~pack:(Hw.Disk.pack_of_handle handle)
                ~record:(Hw.Disk.record_of_handle handle);
              O_error "segment deleted out from under reference"
          | vtoc -> (
          vtoc.Hw.Disk.file_map.(pageno) <- handle;
          match acquire_frame t with
          | None -> O_error "no evictable frame"
          | Some frame ->
              Hw.Phys_mem.zero_frame (mem t) frame;
              charge_asm t ~manager:page_control
                (K.Cost.frame_zero + K.Cost.ptw_update);
              let fe = t.frames.(frame) in
              fe.fr_ptw <- e.oe_pt_base + pageno;
              fe.fr_record <- handle;
              fe.fr_ast <- ast_index;
              fe.fr_pageno <- pageno;
              Hw.Ptw.write (mem t) (e.oe_pt_base + pageno)
                (Hw.Ptw.in_core ~frame);
              O_retry)))

let service_page_fault t (p : oproc) ~ptw_abs =
  t.stats.st_faults <- t.stats.st_faults + 1;
  charge_asm t ~manager:page_control (K.Cost.fault_entry + K.Cost.lock_acquire);
  (* The race window: a fault beginning while another service is in
     flight must retranslate interpretively once it wins the lock. *)
  let active = List.filter (fun end_t -> end_t > now t) t.fault_intervals in
  t.fault_intervals <- active;
  if active <> [] then begin
    t.stats.st_lock_contentions <- t.stats.st_lock_contentions + 1;
    t.stats.st_retranslations <- t.stats.st_retranslations + 1;
    charge_asm t ~manager:page_control (K.Cost.lock_spin + K.Cost.retranslation);
    share t ~from:page_control ~to_:segment_control;
    share t ~from:page_control ~to_:address_space_control
  end;
  let ptw = Hw.Ptw.read (mem t) ptw_abs in
  if ptw.Hw.Ptw.present then O_retry
  else begin
    let ast_index = ast_of_ptw t ptw_abs in
    let pageno = pageno_of_ptw t ptw_abs in
    ignore p;
    if ptw.Hw.Ptw.unallocated then
      (* Software discovers this is really a quota case. *)
      grow t ast_index pageno
    else begin
      match acquire_frame t with
      | None -> O_error "no evictable frame"
      | Some frame ->
          let handle = ptw.Hw.Ptw.arg in
          let fe = t.frames.(frame) in
          fe.fr_ptw <- ptw_abs;
          fe.fr_record <- handle;
          fe.fr_ast <- ast_index;
          fe.fr_pageno <- pageno;
          charge_asm t ~manager:page_control K.Cost.disk_io_setup;
          t.stats.st_page_reads <- t.stats.st_page_reads + 1;
          let latency = Hw.Disk.io_latency_ns (disk t) in
          t.fault_intervals <- (now t + latency) :: t.fault_intervals;
          let ec =
            Sync.Eventcount.create ~name:"old.transit"
              ~obs:(Hw.Machine.obs t.machine) ()
          in
          Hw.Machine.schedule t.machine ~delay:latency (fun () ->
              let img =
                Hw.Disk.read_record (disk t)
                  ~pack:(Hw.Disk.pack_of_handle handle)
                  ~record:(Hw.Disk.record_of_handle handle)
              in
              Hw.Phys_mem.write_frame (mem t) frame img;
              Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.in_core ~frame);
              Sync.Eventcount.advance ec);
          O_wait (ec, 1)
    end
  end

let kernel_touch_sync t ~uid ~pageno ~write =
  match activate t ~uid with
  | Error `Gone -> Error "segment gone"
  | Error `No_slot -> Error "AST full"
  | Ok ast_index -> (
      let e = t.ast.(ast_index) in
      let ptw_abs = e.oe_pt_base + pageno in
      let ptw = Hw.Ptw.read (mem t) ptw_abs in
      if ptw.Hw.Ptw.present then begin
        if write then
          Hw.Ptw.write (mem t) ptw_abs
            { ptw with Hw.Ptw.modified = true; used = true };
        Ok ()
      end
      else if ptw.Hw.Ptw.unallocated then begin
        match grow t ast_index pageno with
        | O_retry -> Ok ()
        | O_error msg -> Error msg
        | O_wait _ -> Error "unexpected wait"
      end
      else begin
        match acquire_frame t with
        | None -> Error "no evictable frame"
        | Some frame ->
            let handle = ptw.Hw.Ptw.arg in
            let img =
              Hw.Disk.read_record (disk t)
                ~pack:(Hw.Disk.pack_of_handle handle)
                ~record:(Hw.Disk.record_of_handle handle)
            in
            Hw.Phys_mem.write_frame (mem t) frame img;
            let fe = t.frames.(frame) in
            fe.fr_ptw <- ptw_abs;
            fe.fr_record <- handle;
            fe.fr_ast <- ast_index;
            fe.fr_pageno <- pageno;
            Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.in_core ~frame);
            t.stats.st_page_reads <- t.stats.st_page_reads + 1;
            K.Meter.charge_raw (K.Meter.account t.meter page_control)
              (Hw.Disk.io_latency_ns (disk t));
            Ok ()
      end)

let deactivate_for_test t ~ast =
  let e = t.ast.(ast) in
  if not e.oe_live then false
  else if e.oe_is_dir && e.oe_active_inferiors > 0 then begin
    t.stats.st_deactivation_blocked <- t.stats.st_deactivation_blocked + 1;
    false
  end
  else begin
    deactivate_ast t ast;
    true
  end
