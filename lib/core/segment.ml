module Hw = Multics_hw

type ast_entry = {
  mutable uid : Ids.uid;
  mutable home_pack : int;
  mutable home_index : int;
  mutable cell : Quota_cell.handle;
  mutable connections : Hw.Addr.abs list;  (* SDW locations *)
  mutable live : bool;
}

type grow_error = [ `Over_quota | `No_space | `Damaged ]

type t = {
  machine : Hw.Machine.t;
  acct : Meter.account;
  obs : Multics_obs.Sink.t;
  volume : Volume.t;
  quota : Quota_cell.t;
  page_frame : Page_frame.t;
  signals : Upward_signal.t;
  n_slots : int;
  pt_words : int;
  pt_region : Core_segment.region;  (* n_slots * pt_words PTWs *)
  ast : ast_entry array;
  active_index : (int, int) Hashtbl.t;  (* uid -> live AST slot *)
  uid_supply : unit -> Ids.uid;
  mutable activations : int;
  mutable deactivations : int;
  mutable relocations : int;
  mutable grows : int;
}

let name = Registry.segment_manager
let lang = Cost.Pl1

let charge t ns = Meter.charge t.acct lang ns

let entry t ns = charge t (Cost.kernel_call + ns)

let create ~machine ~meter ~core ~volume ~quota ~page_frame ~signals
    ~ast_slots ~pt_words ~uid_supply =
  assert (ast_slots > 0 && pt_words > 0);
  assert (pt_words <= Hw.Addr.max_pages_per_segment);
  let pt_region =
    Core_segment.alloc core ~name:"page_tables" ~words:(ast_slots * pt_words)
  in
  Page_frame.set_page_table_region page_frame
    ~base:(Core_segment.abs_of pt_region 0) ~pt_words ~slots:ast_slots;
  { machine; acct = Meter.account meter name; obs = Hw.Machine.obs machine;
    volume; quota; page_frame; signals;
    n_slots = ast_slots; pt_words; pt_region;
    ast =
      Array.init ast_slots (fun _ ->
          { uid = Ids.of_int 0; home_pack = 0; home_index = 0;
            cell = Quota_cell.no_cell;
            connections = []; live = false });
    active_index = Hashtbl.create (2 * ast_slots);
    uid_supply; activations = 0; deactivations = 0; relocations = 0;
    grows = 0 }

let pt_words t = t.pt_words
let mem t = t.machine.Hw.Machine.mem

let slot_entry t slot =
  if slot < 0 || slot >= t.n_slots || not t.ast.(slot).live then
    invalid_arg (Printf.sprintf "Segment: stale AST slot %d" slot);
  t.ast.(slot)

let pt_base t ~slot = Core_segment.abs_of t.pt_region (slot * t.pt_words)

let ptw_abs t ~slot ~pageno =
  if pageno < 0 || pageno >= t.pt_words then
    invalid_arg "Segment.ptw_abs: page beyond table";
  pt_base t ~slot + pageno

let create_segment t ?process_state ~pack ~is_directory ~label () =
  entry t Cost.vtoc_write;
  let uid = t.uid_supply () in
  let index =
    Volume.create_segment t.volume ?process_state ~uid ~pack
      ~is_directory ~label ()
  in
  (uid, index)

(* The AST hash of real Multics: uid -> slot without scanning the
   table.  [active_index] is updated on activate/deactivate only, so a
   present entry always names a live slot with that uid. *)
let find_active t ~uid = Hashtbl.find_opt t.active_index (Ids.to_int uid)

(* Sever every registered connection by faulting the SDWs (the trailer
   walk).  The SDWs live in descriptor segments the address space
   manager owns, but writing a fault bit through a registered location
   is the segment manager's job, exactly as setfaults was in Multics. *)
let sever_connections t e =
  List.iter
    (fun sdw_abs ->
      let sdw = Hw.Sdw.read_at (mem t) sdw_abs in
      Hw.Sdw.write_at (mem t) sdw_abs { sdw with Hw.Sdw.present = false };
      charge t Cost.ptw_update)
    e.connections;
  e.connections <- [];
  (* A changed descriptor may be cached in some processor's associative
     memory; the trailer walk ends with a broadcast AM clear. *)
  Hw.Machine.flush_all_tlbs t.machine;
  Multics_obs.Sink.count t.obs "sdw_am:setfaults_flush"

(* One descriptor write costs an eighth of a PTW update.  A table's
   worth is booked as one charge of the same total. *)
let ptw_build_ns = Cost.scale lang (Cost.ptw_update / 8)

let build_page_table t slot (vtoc : Hw.Disk.vtoc_entry) =
  let disk = t.machine.Hw.Machine.disk in
  let base = pt_base t ~slot in
  for pageno = 0 to t.pt_words - 1 do
    let handle = vtoc.Hw.Disk.file_map.(pageno) in
    let w =
      if handle < 0 then Hw.Ptw.unallocated_word
      else if
        (* A record that died (media error) or tore (crash) builds a
           damaged descriptor: the touch faults into the damage path
           instead of reading garbage. *)
        let pack = Hw.Disk.pack_of_handle handle
        and record = Hw.Disk.record_of_handle handle in
        Hw.Disk.record_is_dead disk ~pack ~record
        || Hw.Disk.record_is_torn disk ~pack ~record
      then Hw.Ptw.encode (Hw.Ptw.damaged_ptw ~record:handle)
      else Hw.Ptw.on_disk_word ~record:handle
    in
    Hw.Phys_mem.write (mem t) (base + pageno) w
  done;
  Meter.charge_raw t.acct (t.pt_words * ptw_build_ns)

(* Force the table's pages out and update the VTOC file map from each
   descriptor's final word as the flush walks past it: pages written
   back keep their records; zero-reclaimed pages were already flagged
   by the page frame manager.  Damaged descriptors are skipped: the
   file map keeps its handle (possibly already repaired by the
   salvager) rather than being overwritten from a descriptor that names
   a lost record. *)
let flush_slot t slot e =
  let vtoc = Volume.vtoc t.volume ~pack:e.home_pack ~index:e.home_index in
  Page_frame.flush_pages t.page_frame ~ptw_abs:(pt_base t ~slot)
    ~n:t.pt_words ~settle:(fun pageno w ->
      if Hw.Ptw.raw_valid w && not (Hw.Ptw.raw_damaged w) then begin
        let value =
          if Hw.Ptw.raw_unallocated w then Hw.Disk.unallocated
          else Hw.Ptw.raw_arg w
        in
        if vtoc.Hw.Disk.file_map.(pageno) <> value then
          Volume.set_file_map_entry t.volume ~pack:e.home_pack
            ~index:e.home_index ~pageno value
      end)

let deactivate_slot t slot =
  let e = t.ast.(slot) in
  assert e.live;
  flush_slot t slot e;
  sever_connections t e;
  Page_frame.unregister_page_table t.page_frame ~slot;
  Hashtbl.remove t.active_index (Ids.to_int e.uid);
  e.live <- false;
  t.deactivations <- t.deactivations + 1;
  Multics_obs.Sink.instant t.obs ~cat:"seg" ~name:"deactivate" ()

let deactivate t ~slot =
  entry t Cost.vtoc_write;
  ignore (slot_entry t slot);
  deactivate_slot t slot

(* Segments activated before a salvage (the hierarchy read back at
   reboot) built damaged descriptors from dead/torn marks the repair
   has since cleared.  Re-derive those descriptors from the repaired
   file map, as [build_page_table] would if the segment were activated
   now. *)
let heal_damaged t =
  let disk = t.machine.Hw.Machine.disk in
  let healed = ref 0 in
  Array.iteri
    (fun slot e ->
      if e.live then begin
        let vtoc =
          Volume.vtoc t.volume ~pack:e.home_pack ~index:e.home_index
        in
        for pageno = 0 to t.pt_words - 1 do
          let abs = ptw_abs t ~slot ~pageno in
          let ptw = Hw.Ptw.read (mem t) abs in
          if ptw.Hw.Ptw.valid && ptw.Hw.Ptw.damaged then begin
            let fm = vtoc.Hw.Disk.file_map.(pageno) in
            let fresh =
              if
                fm >= 0
                && (not
                      (Hw.Disk.record_is_dead disk
                         ~pack:(Hw.Disk.pack_of_handle fm)
                         ~record:(Hw.Disk.record_of_handle fm)))
                && not
                     (Hw.Disk.record_is_torn disk
                        ~pack:(Hw.Disk.pack_of_handle fm)
                        ~record:(Hw.Disk.record_of_handle fm))
              then Hw.Ptw.on_disk ~record:fm
              else Hw.Ptw.unallocated_ptw
            in
            Hw.Ptw.write (mem t) abs fresh;
            charge t Cost.ptw_update;
            incr healed
          end
        done
      end)
    t.ast;
  !healed

(* The new design can deactivate anything; victims are unconnected
   slots, directories included — no hierarchy constraint.  The lowest
   free slot wins; with none free every slot is live, and the lowest
   unconnected one is evicted. *)
let find_slot t =
  let rec free i =
    if i = t.n_slots then None
    else if not t.ast.(i).live then Some i
    else free (i + 1)
  in
  let rec victim i =
    if i = t.n_slots then None
    else
      match t.ast.(i).connections with
      | [] ->
          deactivate_slot t i;
          Some i
      | _ :: _ -> victim (i + 1)
  in
  match free 0 with Some _ as slot -> slot | None -> victim 0

let activate t ~uid ~cell =
  match find_active t ~uid with
  | Some slot ->
      (* Already active: an AST hash hit. *)
      charge t (Cost.kernel_call / 2);
      Ok slot
  | None -> (
      charge t (Cost.kernel_call + Cost.vtoc_read);
      match Volume.locate t.volume ~uid with
      | None -> Error `Gone
      | Some (pack, index) -> (
          match find_slot t with
          | None -> Error `No_slot
          | Some slot ->
              let vtoc = Volume.vtoc t.volume ~pack ~index in
              begin
                let e = t.ast.(slot) in
                e.uid <- uid;
                e.home_pack <- pack;
                e.home_index <- index;
                e.cell <- cell;
                e.connections <- [];
                e.live <- true;
                Hashtbl.replace t.active_index (Ids.to_int uid) slot;
                build_page_table t slot vtoc;
                Page_frame.register_page_table t.page_frame ~slot
                  ~home_pack:pack ~home_index:index ~cell;
                t.activations <- t.activations + 1;
                Multics_obs.Sink.instant t.obs ~cat:"seg" ~name:"activate"
                  ~arg:slot ();
                Ok slot
              end))

let active_slots t =
  Array.to_list t.ast
  |> List.mapi (fun i e -> (i, e))
  |> List.filter_map (fun (i, e) -> if e.live then Some i else None)

let slot_uid t ~slot = (slot_entry t slot).uid
let slot_home t ~slot =
  let e = slot_entry t slot in
  (e.home_pack, e.home_index)


let register_connection t ~slot ~sdw_abs =
  entry t Cost.ptw_update;
  let e = slot_entry t slot in
  if not (List.mem sdw_abs e.connections) then
    e.connections <- sdw_abs :: e.connections

let unregister_connection t ~slot ~sdw_abs =
  entry t Cost.ptw_update;
  let e = slot_entry t slot in
  e.connections <- List.filter (fun a -> a <> sdw_abs) e.connections

(* Relocate the segment in [slot] to an emptier pack.  Raises the
   Segment_moved upward signal on success. *)
let relocate t slot =
  let e = t.ast.(slot) in
  match Volume.pick_emptier_pack t.volume ~except:e.home_pack with
  | None -> Error `No_space
  | Some to_pack -> (
      (* Bring records up to date, then move them wholesale. *)
      flush_slot t slot e;
      match
        Volume.move_segment t.volume ~pack:e.home_pack
          ~index:e.home_index ~to_pack
      with
      | Error `No_space -> Error `No_space
      | Ok (new_pack, new_index, _moved) ->
          sever_connections t e;
          Page_frame.unregister_page_table t.page_frame ~slot;
          e.home_pack <- new_pack;
          e.home_index <- new_index;
          let vtoc =
            Volume.vtoc t.volume ~pack:new_pack ~index:new_index
          in
          build_page_table t slot vtoc;
          Page_frame.register_page_table t.page_frame ~slot
            ~home_pack:new_pack ~home_index:new_index ~cell:e.cell;
          t.relocations <- t.relocations + 1;
          Upward_signal.raise_signal t.signals ~from:name
            (Upward_signal.Segment_moved
               { uid = e.uid; new_pack; new_index });
          Ok ())

let grow t ~slot ~pageno =
  entry t Cost.quota_check;
  let e = slot_entry t slot in
  if pageno < 0 || pageno >= t.pt_words then Error `No_space
  else begin
    t.grows <- t.grows + 1;
    match Quota_cell.charge t.quota e.cell 1 with
    | Error `Over_quota -> Error `Over_quota
    | Ok () -> (
        let try_alloc () =
          Volume.alloc_page_record t.volume ~pack:e.home_pack
        in
        let alloc_result =
          match try_alloc () with
          | Ok record -> Ok record
          | Error `Pack_full -> (
              (* The full-pack exception: relocate and retry. *)
              match relocate t slot with
              | Error `No_space -> Error `No_space
              | Ok () -> (
                  match try_alloc () with
                  | Ok record -> Ok record
                  | Error `Pack_full -> Error `No_space))
        in
        match alloc_result with
        | Error `No_space ->
            Quota_cell.uncharge t.quota e.cell 1;
            Error `No_space
        | Ok record ->
            let handle = Hw.Disk.handle ~pack:e.home_pack ~record in
            Volume.set_file_map_entry t.volume ~pack:e.home_pack
              ~index:e.home_index ~pageno handle;
            Page_frame.add_zero_page t.page_frame
              ~ptw_abs:(ptw_abs t ~slot ~pageno)
              ~record_handle:handle ~quota_cell:e.cell;
            Ok ())
  end

let kernel_touch t ~slot ~pageno ~write =
  entry t 0;
  ignore write;
  let pa = ptw_abs t ~slot ~pageno in
  match Page_frame.fault_in_sync t.page_frame ~ptw_abs:pa with
  | `Ok -> Ok ()
  | `Damaged -> Error `Damaged
  | `Unallocated -> (
      match grow t ~slot ~pageno with
      | Ok () -> Ok ()
      | Error e -> Error e)

(* Direct word access to a paged-in frame.  Written out twice rather
   than through a [with_frame] combinator: directory persist/restore
   funnels every payload word through here, and the closure the
   combinator took per word was a measurable share of that path's
   allocation.  The descriptor is probed raw for the same reason. *)
let read_word t ~slot ~pageno ~offset =
  match kernel_touch t ~slot ~pageno ~write:false with
  | Error _ as e -> e
  | Ok () ->
      let w = Hw.Phys_mem.read (mem t) (ptw_abs t ~slot ~pageno) in
      assert (Hw.Ptw.raw_present w);
      Ok (Hw.Phys_mem.read (mem t)
            (Hw.Addr.frame_base (Hw.Ptw.raw_arg w) + offset))

let write_word t ~slot ~pageno ~offset v =
  match kernel_touch t ~slot ~pageno ~write:true with
  | Error _ as e -> e
  | Ok () ->
      let pa = ptw_abs t ~slot ~pageno in
      let w = Hw.Phys_mem.read (mem t) pa in
      assert (Hw.Ptw.raw_present w);
      let w' = Hw.Ptw.raw_mark_accessed w ~write:true in
      if w' <> w then Hw.Phys_mem.write (mem t) pa w';
      Hw.Phys_mem.write (mem t)
        (Hw.Addr.frame_base (Hw.Ptw.raw_arg w) + offset) v;
      Ok ()

let delete_segment t ~pack ~index ~cell =
  entry t Cost.vtoc_write;
  let vtoc = Volume.vtoc t.volume ~pack ~index in
  (match find_active t ~uid:(Ids.of_int vtoc.Hw.Disk.uid) with
  | Some slot -> deactivate_slot t slot
  | None -> ());
  (* Credit the quota cell for every page the segment still charges. *)
  let vtoc = Volume.vtoc t.volume ~pack ~index in
  let allocated =
    Array.fold_left
      (fun acc v -> if v <> Hw.Disk.unallocated then acc + 1 else acc)
      0 vtoc.Hw.Disk.file_map
  in
  if allocated > 0 then Quota_cell.uncharge t.quota cell allocated;
  Volume.delete_segment t.volume ~pack ~index

let delete_by_uid t ~uid ~cell =
  match Volume.locate t.volume ~uid with
  | None -> ()
  | Some (pack, index) -> delete_segment t ~pack ~index ~cell

let activations t = t.activations
let deactivations t = t.deactivations
let relocations t = t.relocations
let grows t = t.grows
