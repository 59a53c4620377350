type kst_entry = {
  ke_segno : int;
  ke_uid : Ids.uid;
  ke_cell : Quota_cell.handle;
  ke_mode : Acl.mode;
  ke_ring : int;
}

type kst = {
  by_segno : (int, kst_entry) Hashtbl.t;
  by_uid : (int, int) Hashtbl.t;  (* uid -> segno *)
  mutable next_segno : int;
}

type t = {
  acct : Meter.account;
  segment : Segment.t;
  first_user_segno : int;
  ksts : (int, kst) Hashtbl.t;
}

let name = Registry.known_segment_manager

let entry t ns =
  Meter.charge t.acct (Registry.language name)
    (Cost.kernel_call + ns)

let create ~meter ~segment ~first_user_segno =
  { acct = Meter.account meter name; segment; first_user_segno;
    ksts = Hashtbl.create 16 }

let create_kst t ~proc =
  entry t Cost.directory_entry_op;
  if Hashtbl.mem t.ksts proc then
    invalid_arg (Printf.sprintf "Known_segment.create_kst: process %d has one" proc);
  Hashtbl.replace t.ksts proc
    { by_segno = Hashtbl.create 16; by_uid = Hashtbl.create 16;
      next_segno = t.first_user_segno }

let destroy_kst t ~proc =
  entry t Cost.directory_entry_op;
  Hashtbl.remove t.ksts proc

let kst t proc =
  match Hashtbl.find_opt t.ksts proc with
  | Some k -> k
  | None ->
      invalid_arg (Printf.sprintf "Known_segment: process %d has no KST" proc)

let make_known t ~proc ~uid ~cell ~mode ~ring =
  entry t Cost.directory_entry_op;
  let k = kst t proc in
  match Hashtbl.find_opt k.by_uid (Ids.to_int uid) with
  | Some segno -> segno
  | None ->
      let segno = k.next_segno in
      if segno >= Multics_hw.Addr.max_segments then
        failwith "Known_segment.make_known: address space exhausted";
      k.next_segno <- segno + 1;
      let e = { ke_segno = segno; ke_uid = uid; ke_cell = cell;
                ke_mode = mode; ke_ring = ring }
      in
      Hashtbl.replace k.by_segno segno e;
      Hashtbl.replace k.by_uid (Ids.to_int uid) segno;
      segno

let terminate t ~proc ~segno =
  entry t Cost.directory_entry_op;
  let k = kst t proc in
  match Hashtbl.find_opt k.by_segno segno with
  | None -> ()
  | Some e ->
      Hashtbl.remove k.by_segno segno;
      Hashtbl.remove k.by_uid (Ids.to_int e.ke_uid)

let info t ~proc ~segno =
  match Hashtbl.find_opt t.ksts proc with
  | None -> None
  | Some k -> Hashtbl.find_opt k.by_segno segno

let ensure_active t ~proc ~segno =
  entry t 0;
  match info t ~proc ~segno with
  | None -> Error `Not_known
  | Some e -> (
      match
        Segment.activate t.segment ~uid:e.ke_uid ~cell:e.ke_cell
      with
      | Ok slot -> Ok (slot, e)
      | Error `Gone -> Error `Gone
      | Error `No_slot -> Error `No_slot)

let handle_quota_fault t ~proc ~segno ~pageno =
  entry t Cost.quota_check;
  match ensure_active t ~proc ~segno with
  | Error `Not_known -> `Error "quota fault on unknown segment"
  | Error `Gone -> `Error "quota fault on deleted segment"
  | Error `No_slot -> `Error "active segment table full"
  | Ok (slot, _e) -> (
      match Segment.grow t.segment ~slot ~pageno with
      | Ok () -> `Retry
      | Error `Over_quota -> `Error "record quota overflow"
      | Error `No_space -> `Error "no space on any pack"
      | Error `Damaged -> `Error "segment page damaged")
