module Hw = Multics_hw
module Sync = Multics_sync

type frame_entry = {
  mutable used_by : int;  (* ptw_abs, or -1 when free *)
  mutable record_handle : int;  (* -1 when the page has no disk record *)
  mutable quota_cell : Quota_cell.handle;
  mutable pinned : bool;  (* page in transit; not evictable *)
  mutable prefetched : bool;  (* read ahead of demand; hit not yet seen *)
}

(* A page table registered by the segment manager: where its PTWs
   start, which VTOC entry holds its file map, and which quota cell pays
   for its pages. *)
type pt_info = {
  pt_base : Hw.Addr.abs;
  home_pack : int;
  home_index : int;
  cell : Quota_cell.handle;
}

type transit = {
  ec : Sync.Eventcount.t;
  expected : int;
  frame : int;
  mutable prefetch : bool;  (* no demand fault has joined yet *)
  t_start : int;  (* sink clock at read submission *)
  t_ctx : int;  (* request context of the fault/read-ahead behind the read *)
}

type t = {
  machine : Hw.Machine.t;
  meter : Meter.t;
  acct : Meter.account;
  cleaner_acct : Meter.account;  (* the daemon's own synchronous writes *)
  obs : Multics_obs.Sink.t;
  volume : Volume.t;
  quota : Quota_cell.t;
  frames : frame_entry array;
  frame_region : Core_segment.region;
  core : Core_segment.t;
  mutable free : int list;
  mutable free_count : int;
  mutable clock_hand : int;
  transits : (int, transit) Hashtbl.t;
  (* The registry: one entry per AST slot.  The segment manager's page
     tables sit back to back from [pt_region], [pt_words] PTWs each, so
     a PTW's table is found by arithmetic, without a key per PTW. *)
  mutable pt_region : Hw.Addr.abs;
  mutable pt_words : int;
  mutable page_tables : pt_info option array;
  frees_ec : Sync.Eventcount.t;
  cleaner : Sync.Eventcount.t;
  pf_choice : Multics_choice.Choice.t option;
  use_cleaner_daemon : bool;
  use_io_sched : bool;
  read_ahead : int;
  low_water : int;
  high_water : int;
  mutable prev_fault_ptw : int;  (* sequentiality detector for read-ahead *)
  (* Brownout levers: the overload controller flips these to shed
     optional background work first, before anything user-visible. *)
  mutable ra_enabled : bool;
  mutable cleaner_throttled : bool;
  mutable faults_served : int;
  mutable page_reads : int;
  mutable page_writes : int;
  mutable evictions : int;
  mutable zero_reclaims : int;
  mutable inline_evictions : int;
  mutable pages_cleaned : int;
  mutable prefetch_issued : int;
  mutable prefetch_hits : int;
  mutable prefetch_dropped : int;
}

let name = Registry.page_frame_manager
let lang = Cost.Pl1

let charge t ns = Meter.charge t.acct lang ns

let entry t ns = charge t (Cost.kernel_call + ns)

let create ?choice ~machine ~meter ~core ~volume ~quota
    ~use_cleaner_daemon ?(use_io_sched = true) ?(read_ahead = 0) () =
  let n = Core_segment.first_reserved_frame core in
  assert (n > 0);
  assert (read_ahead >= 0);
  let frame_region = Core_segment.alloc core ~name:"frame_table" ~words:n in
  let obs = Hw.Machine.obs machine in
  { machine; meter; acct = Meter.account meter name;
    cleaner_acct = Meter.account meter "page_cleaner_daemon";
    obs; volume; quota;
    frames =
      Array.init n (fun _ ->
          { used_by = -1; record_handle = -1; quota_cell = Quota_cell.no_cell;
            pinned = false; prefetched = false });
    frame_region; core;
    free = List.init n (fun i -> i);
    free_count = n; clock_hand = 0; transits = Hashtbl.create 32;
    pt_region = 0; pt_words = 1; page_tables = [||];
    frees_ec = Sync.Eventcount.create ~name:"pfm.frees" ~obs ?choice ();
    cleaner = Sync.Eventcount.create ~name:"pfm.cleaner" ~obs ?choice ();
    pf_choice = choice;
    use_cleaner_daemon; use_io_sched; read_ahead;
    low_water = max 2 (n / 16);
    high_water = max 4 (n / 8);
    prev_fault_ptw = min_int;
    ra_enabled = true; cleaner_throttled = false;
    faults_served = 0; page_reads = 0; page_writes = 0; evictions = 0;
    zero_reclaims = 0; inline_evictions = 0; pages_cleaned = 0;
    prefetch_issued = 0; prefetch_hits = 0; prefetch_dropped = 0 }

let n_frames t = Array.length t.frames
let free_frames t = t.free_count

let iter_used t f =
  Array.iteri
    (fun frame e -> if e.used_by >= 0 then f ~frame ~ptw_abs:e.used_by)
    t.frames

let mirror t frame =
  (* One word per frame in the wired frame table: owning PTW address, or
     0 when free. *)
  let e = t.frames.(frame) in
  Core_segment.write t.core t.frame_region frame
    (if e.used_by < 0 then 0 else e.used_by)

let mem t = t.machine.Hw.Machine.mem

let set_page_table_region t ~base ~pt_words ~slots =
  assert (pt_words > 0 && slots > 0 && Array.length t.page_tables = 0);
  t.pt_region <- base;
  t.pt_words <- pt_words;
  t.page_tables <- Array.make slots None

let lookup_pt t ptw_abs =
  let off = ptw_abs - t.pt_region in
  if off < 0 || off >= Array.length t.page_tables * t.pt_words then None
  else t.page_tables.(off / t.pt_words)

let register_page_table t ~slot ~home_pack ~home_index ~cell =
  entry t Cost.ptw_update;
  t.page_tables.(slot) <-
    Some
      { pt_base = t.pt_region + (slot * t.pt_words); home_pack; home_index;
        cell }

let unregister_page_table t ~slot =
  entry t Cost.ptw_update;
  t.page_tables.(slot) <- None

let page_table_home t ~ptw_abs =
  match lookup_pt t ptw_abs with
  | Some pt -> Some (pt.home_pack, pt.home_index, pt.cell)
  | None -> None

(* The quota cell that pays for the page behind [ptw_abs]. *)
let pt_cell t ptw_abs =
  match lookup_pt t ptw_abs with
  | Some pt -> pt.cell
  | None -> Quota_cell.no_cell

(* Point the file-map entry of the page behind [ptw_abs] at [value]. *)
let set_file_map t ~ptw_abs value =
  match lookup_pt t ptw_abs with
  | Some pt ->
      Volume.set_file_map_entry t.volume ~pack:pt.home_pack
        ~index:pt.home_index
        ~pageno:(ptw_abs - pt.pt_base)
        value
  | None -> ()

(* Give [frame] to the page behind [ptw_abs].  A page whose read is in
   transit keeps the frame pinned, and its descriptor is left for the
   read's completion; any other page is in core at once. *)
let claim_frame t frame ~ptw_abs ~record_handle ~cell ~in_transit =
  let e = t.frames.(frame) in
  e.used_by <- ptw_abs;
  e.record_handle <- record_handle;
  e.quota_cell <- cell;
  e.pinned <- in_transit;
  e.prefetched <- false;
  mirror t frame;
  if not in_transit then Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.in_core ~frame)

let release_frame t frame =
  let e = t.frames.(frame) in
  e.used_by <- -1;
  e.record_handle <- -1;
  e.quota_cell <- Quota_cell.no_cell;
  e.pinned <- false;
  e.prefetched <- false;
  t.free <- frame :: t.free;
  t.free_count <- t.free_count + 1;
  mirror t frame;
  Sync.Eventcount.advance t.frees_ec

(* ------------------------------------------------------------------ *)
(* Media-error recovery.  A read that fails terminally loses the page:
   the descriptor becomes a damaged PTW and the VTOC entry's damaged
   switch is set — the touching process gets a connection failure, not
   garbage.  A write that fails still has the image in hand, so the
   disk pack manager spares the record; only a full pack damages. *)

(* Raise the offline signal for the pack holding [handle]. *)
let note_offline t handle =
  Volume.note_offline t.volume ~pack:(Hw.Disk.pack_of_handle handle)

(* The page behind [ptw_abs] is lost: set its segment's VTOC damaged
   switch.  The caller has damaged the descriptor. *)
let lose_page t ~ptw_abs =
  Multics_obs.Sink.count t.obs "pfm.damaged";
  match lookup_pt t ptw_abs with
  | Some pt ->
      Volume.mark_damaged t.volume ~pack:pt.home_pack ~index:pt.home_index
  | None -> ()

let mark_page_damaged t ~ptw_abs ~record_handle err =
  (match err with
  | Hw.Io_sched.Pack_offline -> note_offline t record_handle
  | Hw.Io_sched.Dead_record | Hw.Io_sched.Timed_out
  | Hw.Io_sched.Breaker_open -> ());
  Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.damaged_ptw ~record:record_handle);
  lose_page t ~ptw_abs

(* A write-behind failed after its retries.  [img] is the image that
   was being flushed; repoint whatever still names the old record — an
   in-core frame, an on-disk descriptor, the file map — at the spare.
   The descriptor may have moved on (refaulted, deactivated) by the
   time an asynchronous failure arrives; every fixup is conditional. *)
let handle_write_failure t ~ptw_abs ~old_handle img err =
  let repoint new_handle =
    let ptw = Hw.Ptw.read (mem t) ptw_abs in
    if ptw.Hw.Ptw.valid && not ptw.Hw.Ptw.unallocated then
      if ptw.Hw.Ptw.present then begin
        let e = t.frames.(ptw.Hw.Ptw.arg) in
        if e.record_handle = old_handle then e.record_handle <- new_handle
      end
      else if (not ptw.Hw.Ptw.damaged) && ptw.Hw.Ptw.arg = old_handle then
        Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.on_disk ~record:new_handle);
    set_file_map t ~ptw_abs new_handle
  in
  let damage () =
    let ptw = Hw.Ptw.read (mem t) ptw_abs in
    if
      ptw.Hw.Ptw.valid
      && (not ptw.Hw.Ptw.present)
      && (not ptw.Hw.Ptw.unallocated)
      && (not ptw.Hw.Ptw.damaged)
      && ptw.Hw.Ptw.arg = old_handle
    then Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.damaged_ptw ~record:old_handle);
    lose_page t ~ptw_abs
  in
  match err with
  | Hw.Io_sched.Pack_offline ->
      note_offline t old_handle;
      damage ()
  | Hw.Io_sched.Timed_out | Hw.Io_sched.Breaker_open ->
      (* The overload plane dropped the flush (budget dry or breaker
         open): the buffered image is gone, and unlike a dead record
         the home pack is sick, so sparing onto it would not help.
         Damage honestly — the salvager's story, not silent loss. *)
      damage ()
  | Hw.Io_sched.Dead_record -> (
      match Volume.spare_record t.volume ~old_handle img with
      | Ok new_handle ->
          repoint new_handle
      | Error `No_space -> damage ())

(* Write the page in [frame] behind to its record [old_handle]: queue a
   snapshot of the frame on the pack's elevator (or, without the
   scheduler, write it flat).  The scheduler's write buffer keeps any
   reader of the record coherent until the sweep lands, and a terminal
   failure spares the record (or damages the page).  The flush is work
   spawned on behalf of whoever forced it: a [write_behind] child
   context chains it back and is billed the one I/O. *)
let write_behind t ~frame ~ptw_abs ~old_handle =
  let img = Hw.Phys_mem.read_frame (mem t) frame in
  let settle = function
    | Ok () -> ()
    | Error err -> handle_write_failure t ~ptw_abs ~old_handle img err
  in
  let prev = Multics_obs.Sink.current t.obs in
  let ctx = Multics_obs.Sink.new_ctx t.obs ~origin:"write_behind" () in
  Multics_obs.Sink.set_current t.obs ctx;
  Multics_obs.Sink.attribute t.obs ~ctx ~cpu_ns:0 ~ios:1;
  (if t.use_io_sched then
     Volume.write_record_async t.volume ~handle:old_handle ~done_:settle img
   else settle (Volume.write_page t.volume ~handle:old_handle img));
  Multics_obs.Sink.set_current t.obs prev;
  t.page_writes <- t.page_writes + 1

(* A prefetched page counts as a hit once a reference is observed: a
   demand fault joining its transit, or its used bit found set when the
   frame is next scanned. *)
let note_prefetch_reference t e ~used =
  if e.prefetched then begin
    e.prefetched <- false;
    if used then t.prefetch_hits <- t.prefetch_hits + 1
  end

(* Evict the page occupying [frame].  The paper's page-removal
   algorithm: scan the content ([zero] is the caller's one scan of the
   frame, charged here); all-zero pages lose their record and credit
   their quota cell; dirty pages are written back; clean pages just
   drop. *)
let evict_frame t frame ~zero =
  let e = t.frames.(frame) in
  assert (e.used_by >= 0 && not e.pinned);
  let ptw_abs = e.used_by in
  let w = Hw.Phys_mem.read (mem t) ptw_abs in
  charge t Cost.frame_scan_zero;
  t.evictions <- t.evictions + 1;
  note_prefetch_reference t e ~used:(Hw.Ptw.raw_used w);
  if zero then begin
    (* Zero reclamation: the page reverts to an unallocated flag in the
       file map, the record is freed and the quota cell credited — the
       accounting update the paper calls out as a confinement hazard. *)
    t.zero_reclaims <- t.zero_reclaims + 1;
    if e.record_handle >= 0 then
      Volume.free_page_record t.volume
        ~pack:(Hw.Disk.pack_of_handle e.record_handle)
        ~record:(Hw.Disk.record_of_handle e.record_handle);
    Quota_cell.uncharge t.quota e.quota_cell 1;
    set_file_map t ~ptw_abs Hw.Disk.unallocated;
    Hw.Ptw.write (mem t) ptw_abs Hw.Ptw.unallocated_ptw
  end
  else begin
    assert (e.record_handle >= 0);
    if Hw.Ptw.raw_modified w then
      write_behind t ~frame ~ptw_abs ~old_handle:e.record_handle;
    Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.on_disk ~record:e.record_handle)
  end;
  charge t Cost.ptw_update;
  release_frame t frame

(* One sweep of the clock hand; returns the chosen victim. *)
let clock_pick t =
  let n = Array.length t.frames in
  let rec scan steps forced =
    if steps > 2 * n then
      if forced then None
      else scan 0 true (* second pass: take the first evictable frame *)
    else begin
      let i = t.clock_hand in
      t.clock_hand <- (t.clock_hand + 1) mod n;
      charge t Cost.replacement_scan;
      let e = t.frames.(i) in
      if e.used_by < 0 || e.pinned then scan (steps + 1) forced
      else
        (* Raw descriptor probes: the hand inspects two bits per frame,
           so decoding a record per step made the scan the paging
           path's densest allocator. *)
        let w = Hw.Phys_mem.read (mem t) e.used_by in
        if Hw.Ptw.raw_locked w then scan (steps + 1) forced
        else if e.prefetched && (not (Hw.Ptw.raw_used w)) && not forced then
          (* A read-ahead page nobody has referenced yet: give it the
             same grace a used bit earns, or the clock would throw
             prefetches away before the sequential reader arrives. *)
          scan (steps + 1) forced
        else if Hw.Ptw.raw_used w && not forced then begin
          note_prefetch_reference t e ~used:true;
          Hw.Phys_mem.write (mem t) e.used_by (Hw.Ptw.raw_clear_used w);
          scan (steps + 1) forced
        end
        else Some i
    end
  in
  scan 0 false

let evict_one t =
  entry t 0;
  match clock_pick t with
  | None -> false
  | Some frame ->
      evict_frame t frame ~zero:(Hw.Phys_mem.frame_is_zero (mem t) frame);
      true

let pop_free t =
  match t.free with
  | frame :: rest ->
      t.free <- rest;
      t.free_count <- t.free_count - 1;
      charge t Cost.frame_alloc;
      Some frame
  | [] -> None

(* Wake the cleaning daemon once the free pool is down to its low-water
   mark. *)
let wake_cleaner t =
  if t.use_cleaner_daemon && t.free_count <= t.low_water then
    Sync.Eventcount.advance t.cleaner

let acquire_frame t ~inline =
  let result =
    match pop_free t with
    | Some _ as got -> got
    | None ->
        if inline then t.inline_evictions <- t.inline_evictions + 1;
        if evict_one t then pop_free t else None
  in
  wake_cleaner t;
  result

type service_outcome =
  | Wait of Sync.Eventcount.t * int
  | Retry
  | Damaged of string

let join_transit t transit =
  Multics_obs.Sink.count t.obs "pfm.transit_join";
  if transit.prefetch then begin
    (* A demand fault arrived while the read-ahead was still in the
       air: the prefetch hid (part of) this fault's latency. *)
    transit.prefetch <- false;
    t.frames.(transit.frame).prefetched <- false;
    t.prefetch_hits <- t.prefetch_hits + 1
  end;
  Wait (transit.ec, transit.expected)

(* Claim [frame] for the page behind [ptw_abs] and start the record
   read.  Completion — a batch sweep of the I/O scheduler, or the flat
   latency when the scheduler is off — unlocks the descriptor and
   notifies the transit eventcount. *)
let start_read t ~ptw_abs ~frame ~record_handle ~cell ~prefetch =
  claim_frame t frame ~ptw_abs ~record_handle ~cell ~in_transit:true;
  let e = t.frames.(frame) in
  let ec =
    Sync.Eventcount.create ~histo:"ec.wait:pfm.transit" ~obs:t.obs
      ?choice:t.pf_choice ()
  in
  let transit =
    { ec; expected = 1; frame; prefetch;
      t_start = Multics_obs.Sink.now t.obs;
      t_ctx = Multics_obs.Sink.current t.obs }
  in
  Hashtbl.replace t.transits ptw_abs transit;
  charge t Cost.disk_io_setup;
  t.page_reads <- t.page_reads + 1;
  Multics_obs.Sink.attribute t.obs ~ctx:transit.t_ctx ~cpu_ns:0 ~ios:1;
  Multics_obs.Sink.async_begin t.obs ~cat:"pfm" ~name:"page_read" ~id:ptw_abs
    ~arg:(if prefetch then 1 else 0) ();
  let finish result =
    (* Completion runs on behalf of the request that started the read:
       its context owns the descriptor fixups, the latency sample (so
       the page-fault SLO watchdog blames the right fault) and the
       eventcount advance. *)
    let prev_ctx = Multics_obs.Sink.current t.obs in
    Multics_obs.Sink.set_current t.obs transit.t_ctx;
    (match result with
    | Ok img ->
        Hw.Phys_mem.write_frame (mem t) frame img;
        (* Unlock the descriptor and notify all waiters. *)
        Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.in_core ~frame);
        e.pinned <- false;
        e.prefetched <- transit.prefetch
    | Error (Hw.Io_sched.Timed_out | Hw.Io_sched.Breaker_open) ->
        (* Shed, not lost: the platter still holds the page.  Restore
           the on-disk descriptor so a later fault retries cleanly;
           woken waiters re-fault and their own checkpoints decide
           whether they still want it. *)
        Multics_obs.Sink.count t.obs "pfm.read_shed";
        Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.on_disk ~record:record_handle);
        e.pinned <- false
    | Error Hw.Io_sched.Pack_offline
      when Volume.breaker_state t.volume
             ~pack:(Hw.Disk.pack_of_handle record_handle)
           = `Open ->
        (* The failure tripped the pack's circuit breaker: the system
           expects the pack back (the half-open probe will tell).  A
           read is idempotent, so treat the window as transient — raise
           the offline signal but keep the page readable for the retry
           after recovery, instead of damaging it. *)
        note_offline t record_handle;
        Multics_obs.Sink.count t.obs "pfm.read_shed";
        Hw.Ptw.write (mem t) ptw_abs (Hw.Ptw.on_disk ~record:record_handle);
        e.pinned <- false
    | Error err ->
        (* The read failed terminally: the page is lost.  Damage the
           descriptor and give the frame back; woken waiters re-fault
           and the damaged descriptor routes them to the error path. *)
        mark_page_damaged t ~ptw_abs ~record_handle err;
        e.pinned <- false);
    Hashtbl.remove t.transits ptw_abs;
    Multics_obs.Sink.async_end t.obs ~cat:"pfm" ~name:"page_read" ~id:ptw_abs
      ();
    Multics_obs.Sink.add_latency t.obs ~name:"pfm.page_read"
      (Multics_obs.Sink.now t.obs - transit.t_start);
    (match result with Error _ -> release_frame t frame | Ok _ -> ());
    Sync.Eventcount.advance ec;
    Multics_obs.Sink.set_current t.obs prev_ctx
  in
  if t.use_io_sched then
    Volume.read_record_async t.volume ~handle:record_handle ~done_:finish
  else
    Hw.Machine.schedule t.machine ~delay:(Volume.io_latency_ns t.volume)
      (fun () ->
        finish (Volume.read_page t.volume ~handle:record_handle));
  transit

(* Sequential read-ahead: when this fault's page directly follows the
   previous fault's, queue the next [read_ahead] on-disk pages of the
   same page table.  Prefetches take frames only from the free pool and
   never push it below the cleaner's low-water mark — under memory
   pressure they are dropped silently. *)
let maybe_read_ahead t ~ptw_abs =
  if t.read_ahead > 0 && t.ra_enabled then begin
    let sequential = t.prev_fault_ptw = ptw_abs - 1 in
    (if sequential then
       match lookup_pt t ptw_abs with
       | None -> ()
       | Some pt ->
           for i = 1 to t.read_ahead do
             let target = ptw_abs + i in
             if target < pt.pt_base + t.pt_words then begin
               (* Raw probes: the common outcome (page present, or not
                  worth prefetching) needs four bit tests of the
                  fetched word, not a decoded record. *)
               let w = Hw.Phys_mem.read (mem t) target in
               if
                 Hw.Ptw.raw_valid w
                 && (not (Hw.Ptw.raw_present w))
                 && (not (Hw.Ptw.raw_unallocated w))
                 && (not (Hw.Ptw.raw_locked w))
                 && not (Hashtbl.mem t.transits target)
               then
                 if t.free_count > t.low_water then (
                   match pop_free t with
                   | None -> t.prefetch_dropped <- t.prefetch_dropped + 1
                   | Some frame ->
                       t.prefetch_issued <- t.prefetch_issued + 1;
                       (* The prefetch is work spawned on behalf of the
                          faulting request: give it a child context so
                          its whole read chains back to the fault. *)
                       let prev = Multics_obs.Sink.current t.obs in
                       let pf_ctx =
                         Multics_obs.Sink.new_ctx t.obs ~origin:"read_ahead"
                           ()
                       in
                       Multics_obs.Sink.set_current t.obs pf_ctx;
                       Multics_obs.Sink.instant t.obs ~cat:"pfm"
                         ~name:"read_ahead" ~arg:target ();
                       wake_cleaner t;
                       ignore
                         (start_read t ~ptw_abs:target ~frame
                            ~record_handle:(Hw.Ptw.raw_arg w) ~cell:pt.cell
                            ~prefetch:true);
                       Multics_obs.Sink.set_current t.obs prev)
                 else t.prefetch_dropped <- t.prefetch_dropped + 1
             end
           done);
    t.prev_fault_ptw <- ptw_abs
  end

let service_missing_page t ~ptw_abs =
  entry t Cost.fault_entry;
  t.faults_served <- t.faults_served + 1;
  match Hashtbl.find_opt t.transits ptw_abs with
  | Some transit ->
      maybe_read_ahead t ~ptw_abs;
      join_transit t transit
  | None ->
      (* Raw probes: every missing-page fault lands here, and the
         decision needs two bit tests and the record field of the
         fetched word, not a decoded record. *)
      let w = Hw.Phys_mem.read (mem t) ptw_abs in
      if Hw.Ptw.raw_present w then Retry
      else if Hw.Ptw.raw_damaged w then begin
        (* The paper's damaged-segment switch at page granularity: the
           touching process gets a fault, never the lost data. *)
        Multics_obs.Sink.count t.obs "pfm.damaged_ref";
        Damaged
          (Printf.sprintf "page damaged (record %o lost to media error)"
             (Hw.Ptw.raw_arg w))
      end
      else begin
        match acquire_frame t ~inline:true with
        | None ->
            (* Every frame pinned or in transit: wait for any release. *)
            Wait (t.frees_ec, Sync.Eventcount.read t.frees_ec + 1)
        | Some frame ->
            let transit =
              start_read t ~ptw_abs ~frame ~record_handle:(Hw.Ptw.raw_arg w)
                ~cell:(pt_cell t ptw_abs) ~prefetch:false
            in
            maybe_read_ahead t ~ptw_abs;
            join_transit t transit
      end

let service_locked_descriptor t ~ptw_abs =
  entry t Cost.kernel_call;
  match Hashtbl.find_opt t.transits ptw_abs with
  | Some transit -> join_transit t transit
  | None -> Retry

let add_zero_page t ~ptw_abs ~record_handle ~quota_cell =
  entry t (Cost.frame_alloc + Cost.frame_zero);
  match acquire_frame t ~inline:true with
  | None -> failwith "Page_frame.add_zero_page: no evictable frame"
  | Some frame ->
      Hw.Phys_mem.zero_frame (mem t) frame;
      claim_frame t frame ~ptw_abs ~record_handle ~cell:quota_cell
        ~in_transit:false;
      charge t Cost.ptw_update

let fault_in_sync t ~ptw_abs =
  (* Raw probes: directory persist/restore funnels every payload word
     through here, and the common outcome (`Ok, page already in core)
     needs three bit tests of the fetched word, not a decoded record. *)
  let w = Hw.Phys_mem.read (mem t) ptw_abs in
  if Hw.Ptw.raw_unallocated w then begin
    charge t (Cost.ptw_update / 4);
    `Unallocated
  end
  else if Hw.Ptw.raw_damaged w then begin
    charge t (Cost.ptw_update / 4);
    `Damaged
  end
  else if Hw.Ptw.raw_present w then begin
    charge t (Cost.ptw_update / 4);
    `Ok
  end
  else if Hashtbl.mem t.transits ptw_abs then begin
    (* An asynchronous read is in flight; pay the latency and let the
       pending completion finish the job. *)
    Meter.charge_raw t.acct (Volume.io_latency_ns t.volume);
    `Ok
  end
  else begin
    charge t Cost.fault_entry;
    match acquire_frame t ~inline:true with
    | None -> failwith "Page_frame.fault_in_sync: no evictable frame"
    | Some frame ->
        let record_handle = Hw.Ptw.raw_arg w in
        match Volume.read_page t.volume ~handle:record_handle with
        | Error err ->
            mark_page_damaged t ~ptw_abs ~record_handle err;
            release_frame t frame;
            Meter.charge_raw t.acct (Volume.io_latency_ns t.volume);
            `Damaged
        | Ok img ->
            Hw.Phys_mem.write_frame (mem t) frame img;
            claim_frame t frame ~ptw_abs ~record_handle
              ~cell:(pt_cell t ptw_abs) ~in_transit:false;
            t.page_reads <- t.page_reads + 1;
            Meter.charge_raw t.acct (Volume.io_latency_ns t.volume);
            `Ok
  end

(* Scanning an absent descriptor is one descriptor read. *)
let absent_scan_ns = Cost.scale lang (Cost.ptw_update / 4)

let flush_pages t ~ptw_abs ~n ~settle =
  (* Raw probes: deactivation and relocation walk every descriptor of a
     table here, and the decision needs one bit test and the frame field
     of the fetched word, not a decoded record.  An evicted page's
     descriptor is read once more for [settle], since the eviction
     rewrote it.  The absent descriptors' scan charges are booked as one
     charge of the same total. *)
  let mem = mem t in
  let absent = ref 0 in
  for i = 0 to n - 1 do
    let a = ptw_abs + i in
    let w = Hw.Phys_mem.read mem a in
    if Hw.Ptw.raw_present w then begin
      charge t Cost.kernel_call;
      let frame = Hw.Ptw.raw_arg w in
      evict_frame t frame ~zero:(Hw.Phys_mem.frame_is_zero mem frame);
      settle i (Hw.Phys_mem.read mem a)
    end
    else begin
      incr absent;
      settle i w
    end
  done;
  if !absent > 0 then Meter.charge_raw t.acct (!absent * absent_scan_ns)

(* The cleaning daemon is a write-behind engine: it writes dirty,
   not-recently-used pages back to their records and clears the
   modified bit, WITHOUT freeing the frames.  Fault-time eviction then
   usually finds clean victims and never stalls on a write — the work
   moved to a process that runs "at a low priority, when the processor
   might otherwise have been idle" (Huber's design).

   With the I/O scheduler the daemon only QUEUES the writes: one pass
   accumulates up to a sweep's worth of dirty pages per pack, and the
   elevator flushes them as one batched sweep whose latency is charged
   by the scheduler's cost model — the daemon's step cost is just the
   scan.  Without it, each write is an isolated transfer charged at the
   full single-transfer rate (the old half-latency hack undercharged
   and lived outside the cost model). *)
let cleaner_step t _vp =
  ignore (Meter.take_pending t.meter);
  if t.cleaner_throttled then begin
    (* Brownout: background cleaning is deferrable work.  The daemon
       parks until the next wakeup; the fault path falls back to inline
       eviction, trading latency there for less competing disk I/O. *)
    Multics_obs.Sink.count t.obs "pfm.cleaner_throttled";
    Vp.Wait (t.cleaner, Sync.Eventcount.read t.cleaner + 1, Cost.kernel_call)
  end
  else begin
  Multics_obs.Sink.count t.obs "pfm.cleaner_pass";
  let cleaned = ref 0 in
  let limit = if t.use_io_sched then 8 else 4 in
  Array.iteri
    (fun frame e ->
      if
        !cleaned < limit && e.used_by >= 0 && (not e.pinned)
        && e.record_handle >= 0
      then begin
        (* Raw descriptor probes: the daemon scans two bits per frame,
           so decoding a record per pass made it the idle loop's
           densest allocator. *)
        let w = Hw.Phys_mem.read (mem t) e.used_by in
        if Hw.Ptw.raw_modified w && not (Hw.Ptw.raw_used w) then begin
          write_behind t ~frame ~ptw_abs:e.used_by
            ~old_handle:e.record_handle;
          (* A flat write is the daemon's own low-priority time, metered
             separately so fault-path accounting stays clean. *)
          if not t.use_io_sched then
            Meter.charge_raw t.cleaner_acct (Volume.io_latency_ns t.volume);
          Hw.Phys_mem.write (mem t) e.used_by (Hw.Ptw.raw_clear_modified w);
          t.pages_cleaned <- t.pages_cleaned + 1;
          incr cleaned
        end
      end)
    t.frames;
  (* Keep the pool of free frames stocked ("a pool of free page frames
     at low priority"): when the fault path has drained it to the
     low-water mark, evict up to the high-water mark so demand faults —
     and read-aheads — find frames without stalling on the clock. *)
  if t.free_count <= t.low_water then begin
    let rec refill budget =
      if budget > 0 && t.free_count < t.high_water then
        match clock_pick t with
        | None -> ()
        | Some frame ->
            evict_frame t frame ~zero:(Hw.Phys_mem.frame_is_zero (mem t) frame);
            incr cleaned;
            refill (budget - 1)
    in
    refill limit
  end;
  let cost = Cost.kernel_call + Meter.take_pending t.meter in
  if !cleaned = 0 then
    Vp.Wait (t.cleaner, Sync.Eventcount.read t.cleaner + 1, cost)
  else Vp.Continue cost
  end

let set_read_ahead_enabled t on = t.ra_enabled <- on
let set_cleaner_throttled t on = t.cleaner_throttled <- on

let faults_served t = t.faults_served
let page_reads t = t.page_reads
let page_writes t = t.page_writes
let evictions t = t.evictions
let zero_reclaims t = t.zero_reclaims
let inline_evictions t = t.inline_evictions
let pages_cleaned t = t.pages_cleaned
let prefetch_issued t = t.prefetch_issued
let prefetch_dropped t = t.prefetch_dropped

let prefetch_hits t =
  (* Fold in prefetched pages whose reference the clock has not yet
     observed; still-unreferenced flags stay set so a later reference
     can count. *)
  Array.iter
    (fun e ->
      if
        e.prefetched && e.used_by >= 0 && (not e.pinned)
        && (Hw.Ptw.read (mem t) e.used_by).Hw.Ptw.used
      then note_prefetch_reference t e ~used:true)
    t.frames;
  t.prefetch_hits
