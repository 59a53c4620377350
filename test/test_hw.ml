(* Tests for the simulated hardware substrate. *)

module Hw = Multics_hw

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Words *)

let test_word_insert_extract () =
  let w = Hw.Word.insert Hw.Word.zero ~pos:5 ~len:7 0b1011011 in
  check Alcotest.int "field" 0b1011011 (Hw.Word.extract w ~pos:5 ~len:7);
  check Alcotest.int "below" 0 (Hw.Word.extract w ~pos:0 ~len:5);
  check Alcotest.int "above" 0 (Hw.Word.extract w ~pos:12 ~len:10)

let test_word_mask () =
  check Alcotest.int "truncates to 36 bits" 0 (Hw.Word.of_int (1 lsl 36));
  check Alcotest.int "wraps" 0 (Hw.Word.add ((1 lsl 36) - 1) 1)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"word insert/extract roundtrip" ~count:500
    QCheck.(triple (int_bound 29) (int_range 1 6) small_nat)
    (fun (pos, len, v) ->
      let v = v land ((1 lsl len) - 1) in
      let w = Hw.Word.insert Hw.Word.zero ~pos ~len v in
      Hw.Word.extract w ~pos ~len = v)

let prop_word_set_bit =
  QCheck.Test.make ~name:"word set_bit/bit" ~count:500
    QCheck.(pair (int_bound 35) bool)
    (fun (i, b) -> Hw.Word.bit (Hw.Word.set_bit Hw.Word.zero i b) i = b)

(* ------------------------------------------------------------------ *)
(* Addresses *)

let test_addr_split () =
  let v = Hw.Addr.virt ~segno:3 ~wordno:(5 * Hw.Addr.page_size + 17) in
  check Alcotest.int "pageno" 5 (Hw.Addr.pageno v);
  check Alcotest.int "offset" 17 (Hw.Addr.offset v)

let prop_addr_of_page =
  QCheck.Test.make ~name:"addr of_page/pageno/offset" ~count:500
    QCheck.(triple (int_bound 10) (int_bound 255) (int_bound 1023))
    (fun (segno, pageno, offset) ->
      let v = Hw.Addr.of_page ~segno ~pageno ~offset in
      Hw.Addr.pageno v = pageno && Hw.Addr.offset v = offset)

(* ------------------------------------------------------------------ *)
(* Descriptors *)

let ptw_gen =
  QCheck.Gen.(
    let* arg = int_bound ((1 lsl 18) - 1) in
    let* bits = int_bound 127 in
    return
      { Hw.Ptw.arg;
        present = bits land 1 = 1;
        modified = bits land 2 = 2;
        used = bits land 4 = 4;
        locked = bits land 8 = 8;
        unallocated = bits land 16 = 16;
        valid = bits land 32 = 32;
        damaged = bits land 64 = 64 })

let prop_ptw_roundtrip =
  QCheck.Test.make ~name:"ptw encode/decode roundtrip" ~count:500
    (QCheck.make ptw_gen)
    (fun ptw -> Hw.Ptw.decode (Hw.Ptw.encode ptw) = ptw)

let sdw_gen =
  QCheck.Gen.(
    let* page_table = int_bound ((1 lsl 24) - 1) in
    let* length = int_bound 256 in
    let* bits = int_bound 7 in
    let* r1 = int_bound 7 in
    let* r2 = int_range r1 7 in
    let* r3 = int_range r2 7 in
    return
      (Hw.Sdw.make ~page_table ~length ~read:(bits land 1 = 1)
         ~write:(bits land 2 = 2) ~execute:(bits land 4 = 4) ~r1 ~r2 ~r3))

let prop_sdw_roundtrip =
  QCheck.Test.make ~name:"sdw encode/decode roundtrip" ~count:500
    (QCheck.make sdw_gen)
    (fun sdw -> Hw.Sdw.decode (Hw.Sdw.encode sdw) = sdw)

let test_sdw_permits () =
  let sdw =
    Hw.Sdw.make ~page_table:0 ~length:1 ~read:true ~write:true ~execute:false
      ~r1:0 ~r2:4 ~r3:5
  in
  check Alcotest.bool "ring0 write" true (Hw.Sdw.permits sdw ~ring:0 Hw.Fault.Write);
  check Alcotest.bool "ring4 write denied" false
    (Hw.Sdw.permits sdw ~ring:4 Hw.Fault.Write);
  check Alcotest.bool "ring4 read" true (Hw.Sdw.permits sdw ~ring:4 Hw.Fault.Read);
  check Alcotest.bool "ring5 read denied" false
    (Hw.Sdw.permits sdw ~ring:5 Hw.Fault.Read);
  check Alcotest.bool "no execute bit" false
    (Hw.Sdw.permits sdw ~ring:0 Hw.Fault.Execute)

(* ------------------------------------------------------------------ *)
(* Physical memory *)

let test_phys_mem_rw () =
  let mem = Hw.Phys_mem.create ~frames:4 in
  Hw.Phys_mem.write mem 2048 0o777;
  check Alcotest.int "read back" 0o777 (Hw.Phys_mem.read mem 2048);
  check Alcotest.bool "frame 2 nonzero" false (Hw.Phys_mem.frame_is_zero mem 2);
  Hw.Phys_mem.zero_frame mem 2;
  check Alcotest.bool "frame 2 zero" true (Hw.Phys_mem.frame_is_zero mem 2)

let test_phys_mem_bounds () =
  let mem = Hw.Phys_mem.create ~frames:1 in
  Alcotest.check_raises "oob read"
    (Invalid_argument "Phys_mem.read: address 1024 out of range") (fun () ->
      ignore (Hw.Phys_mem.read mem Hw.Addr.page_size))

(* A paired fill stores what the equivalent [write]s would, counts each
   word, and checks its whole range before storing anything. *)
let test_phys_mem_fill_pairs () =
  let filled = Hw.Phys_mem.create ~frames:2 in
  let written = Hw.Phys_mem.create ~frames:2 in
  let w0 = 0o123 and w1 = (1 lsl 40) + 5 in
  Hw.Phys_mem.fill_pairs filled 1000 ~pairs:30 w0 w1;
  for i = 0 to 29 do
    Hw.Phys_mem.write written (1000 + (2 * i)) w0;
    Hw.Phys_mem.write written (1000 + (2 * i) + 1) w1
  done;
  check Alcotest.int "writes counted" (Hw.Phys_mem.writes written)
    (Hw.Phys_mem.writes filled);
  check Alcotest.int "no reads" 0 (Hw.Phys_mem.reads filled);
  for a = 0 to Hw.Phys_mem.words filled - 1 do
    if Hw.Phys_mem.read filled a <> Hw.Phys_mem.read written a then
      Alcotest.failf "word %d differs" a
  done;
  let mem = Hw.Phys_mem.create ~frames:1 in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Phys_mem.fill_pairs: 2 pairs at 1021 out of range")
    (fun () -> Hw.Phys_mem.fill_pairs mem 1021 ~pairs:2 1 1);
  check Alcotest.bool "nothing stored" true (Hw.Phys_mem.frame_is_zero mem 0);
  check Alcotest.int "nothing counted" 0 (Hw.Phys_mem.writes mem)

(* The precomputed words segment activation writes decode to the
   descriptors they stand for, across the whole 18-bit handle range. *)
let test_ptw_precomputed_words () =
  let ptw = Alcotest.testable Hw.Ptw.pp ( = ) in
  check ptw "unallocated" Hw.Ptw.unallocated_ptw
    (Hw.Ptw.decode Hw.Ptw.unallocated_word);
  List.iter
    (fun record ->
      check ptw (Printf.sprintf "on disk %d" record) (Hw.Ptw.on_disk ~record)
        (Hw.Ptw.decode (Hw.Ptw.on_disk_word ~record));
      check Alcotest.int (Printf.sprintf "encoded %d" record)
        (Hw.Ptw.encode (Hw.Ptw.on_disk ~record))
        (Hw.Ptw.on_disk_word ~record))
    [ 0; (1 lsl 18) - 1; Hw.Disk.handle ~pack:63 ~record:4095 ]

(* ------------------------------------------------------------------ *)
(* CPU translation *)

(* Lay out, by hand, one segment with a 2-page page table:
   frame 10 backs page 0; page 1 is on disk (record 7).
   The SDW array lives at abs 0; the page table at abs 100. *)
let build_machine ?(config = Hw.Hw_config.legacy_multics) () =
  let config = { config with Hw.Hw_config.memory_frames = 32 } in
  let machine = Hw.Machine.create config in
  let mem = machine.Hw.Machine.mem in
  Hw.Ptw.write mem 100 (Hw.Ptw.in_core ~frame:10);
  Hw.Ptw.write mem 101 (Hw.Ptw.on_disk ~record:7);
  Hw.Ptw.write mem 102 Hw.Ptw.unallocated_ptw;
  let sdw =
    Hw.Sdw.make ~page_table:100 ~length:3 ~read:true ~write:true ~execute:true
      ~r1:7 ~r2:7 ~r3:7
  in
  Hw.Sdw.write_at mem (2 * Hw.Sdw.words) sdw;
  let cpu = machine.Hw.Machine.cpus.(0) in
  Hw.Cpu.load_user_dbr cpu (Some { Hw.Cpu.base = 0; n_segments = 8 });
  (machine, cpu)

let translate (machine : Hw.Machine.t) cpu virt access =
  Hw.Cpu.translate machine.Hw.Machine.config machine.Hw.Machine.mem cpu virt
    access

let test_translate_hit () =
  let machine, cpu = build_machine () in
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:0 ~offset:5 in
  match translate machine cpu virt Hw.Fault.Read with
  | Ok abs -> check Alcotest.int "abs" (Hw.Addr.frame_base 10 + 5) abs
  | Error f -> Alcotest.failf "unexpected fault %s" (Hw.Fault.to_string f)

let test_translate_sets_used_modified () =
  let machine, cpu = build_machine () in
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:0 ~offset:0 in
  (match translate machine cpu virt Hw.Fault.Write with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unexpected fault %s" (Hw.Fault.to_string f));
  let ptw = Hw.Ptw.read machine.Hw.Machine.mem 100 in
  check Alcotest.bool "used" true ptw.Hw.Ptw.used;
  check Alcotest.bool "modified" true ptw.Hw.Ptw.modified

let test_translate_missing_page () =
  let machine, cpu = build_machine () in
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:1 ~offset:0 in
  match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_page { segno = 2; pageno = 1; ptw_abs = 101 }) -> ()
  | Error f -> Alcotest.failf "wrong fault %s" (Hw.Fault.to_string f)
  | Ok _ -> Alcotest.fail "expected missing-page fault"

let test_translate_missing_segment () =
  let machine, cpu = build_machine () in
  let virt = Hw.Addr.of_page ~segno:5 ~pageno:0 ~offset:0 in
  match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_segment { segno = 5 }) -> ()
  | _ -> Alcotest.fail "expected missing-segment fault"

let test_translate_bounds () =
  let machine, cpu = build_machine () in
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:4 ~offset:0 in
  match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Bounds_fault _) -> ()
  | _ -> Alcotest.fail "expected bounds fault"

let test_translate_access () =
  let machine, cpu = build_machine () in
  cpu.Hw.Cpu.ring <- 7;
  let mem = machine.Hw.Machine.mem in
  let sdw =
    Hw.Sdw.make ~page_table:100 ~length:2 ~read:true ~write:false ~execute:false
      ~r1:0 ~r2:7 ~r3:7
  in
  Hw.Sdw.write_at mem (2 * Hw.Sdw.words) sdw;
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:0 ~offset:0 in
  (match translate machine cpu virt Hw.Fault.Write with
  | Error (Hw.Fault.Access_violation { ring = 7; _ }) -> ()
  | _ -> Alcotest.fail "expected access violation");
  match translate machine cpu virt Hw.Fault.Read with
  | Ok _ -> ()
  | _ -> Alcotest.fail "read should succeed"

(* The quota-fault bit: legacy hardware reports a plain missing page for
   an unallocated page; new hardware distinguishes the quota fault. *)
let test_quota_fault_bit () =
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:2 ~offset:0 in
  let machine, cpu = build_machine () in
  (match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_page { pageno = 2; _ }) -> ()
  | _ -> Alcotest.fail "legacy hw should give missing-page");
  let machine, cpu = build_machine ~config:Hw.Hw_config.kernel_multics () in
  (* kernel_multics uses dual DBR; segno 2 < split comes from system dbr *)
  Hw.Cpu.load_user_dbr cpu None;
  cpu.Hw.Cpu.system_dbr <- Some { Hw.Cpu.base = 0; n_segments = 8 };
  match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Quota_fault { segno = 2; pageno = 2 }) -> ()
  | Error f -> Alcotest.failf "wrong fault %s" (Hw.Fault.to_string f)
  | Ok _ -> Alcotest.fail "expected quota fault"

(* The descriptor lock bit: first fault locks the PTW and records its
   address; a second processor then takes a locked-descriptor fault. *)
let test_descriptor_lock_bit () =
  let config = Hw.Hw_config.kernel_multics in
  let machine, cpu0 = build_machine ~config () in
  Hw.Cpu.load_user_dbr cpu0 None;
  cpu0.Hw.Cpu.system_dbr <- Some { Hw.Cpu.base = 0; n_segments = 8 };
  let cpu1 = machine.Hw.Machine.cpus.(1) in
  cpu1.Hw.Cpu.system_dbr <- Some { Hw.Cpu.base = 0; n_segments = 8 };
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:1 ~offset:0 in
  (match translate machine cpu0 virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_page { ptw_abs = 101; _ }) -> ()
  | _ -> Alcotest.fail "cpu0 should take missing-page");
  check (Alcotest.option Alcotest.int) "lock register" (Some 101)
    cpu0.Hw.Cpu.locked_ptw;
  check Alcotest.bool "ptw locked" true
    (Hw.Ptw.read machine.Hw.Machine.mem 101).Hw.Ptw.locked;
  match translate machine cpu1 virt Hw.Fault.Read with
  | Error (Hw.Fault.Locked_descriptor { ptw_abs = 101; _ }) -> ()
  | Error f -> Alcotest.failf "wrong fault %s" (Hw.Fault.to_string f)
  | Ok _ -> Alcotest.fail "cpu1 should take locked-descriptor"

(* Dual DBR: high segment numbers translate through the user table even
   when the system table has no entry, and vice versa. *)
let test_dual_dbr_split () =
  let config = { Hw.Hw_config.kernel_multics with Hw.Hw_config.system_segno_split = 4 } in
  let machine, cpu = build_machine ~config () in
  (* segment 2 is below the split: needs the system dbr *)
  Hw.Cpu.load_user_dbr cpu (Some { Hw.Cpu.base = 0; n_segments = 8 });
  cpu.Hw.Cpu.system_dbr <- None;
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:0 ~offset:0 in
  (match translate machine cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_segment _) -> ()
  | _ -> Alcotest.fail "system segment without system dbr must miss");
  cpu.Hw.Cpu.system_dbr <- Some { Hw.Cpu.base = 0; n_segments = 8 };
  match translate machine cpu virt Hw.Fault.Read with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unexpected fault %s" (Hw.Fault.to_string f)

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_alloc_full () =
  let disk = Hw.Disk.create ~packs:2 ~records_per_pack:3 ~read_latency_ns:10 in
  let r1 = Hw.Disk.alloc_record disk ~pack:0 in
  let r2 = Hw.Disk.alloc_record disk ~pack:0 in
  let r3 = Hw.Disk.alloc_record disk ~pack:0 in
  check Alcotest.int "all distinct" 3
    (List.length (List.sort_uniq compare [ r1; r2; r3 ]));
  Alcotest.check_raises "full pack" (Hw.Disk.Pack_full 0) (fun () ->
      ignore (Hw.Disk.alloc_record disk ~pack:0));
  Hw.Disk.free_record disk ~pack:0 ~record:r2;
  check Alcotest.int "after free" 1 (Hw.Disk.free_records disk ~pack:0)

let test_disk_rw () =
  let disk = Hw.Disk.create ~packs:1 ~records_per_pack:4 ~read_latency_ns:10 in
  let r = Hw.Disk.alloc_record disk ~pack:0 in
  let words = Array.make Hw.Addr.page_size 0 in
  words.(0) <- 42;
  words.(1023) <- 7;
  Hw.Disk.write_record disk ~pack:0 ~record:r (Hw.Page_image.of_words words);
  let back = Hw.Disk.read_record disk ~pack:0 ~record:r in
  check Alcotest.int "word 0" 42 (Hw.Page_image.get back 0);
  check Alcotest.int "word 1023" 7 (Hw.Page_image.get back 1023)

let test_disk_handles () =
  let h = Hw.Disk.handle ~pack:3 ~record:123 in
  check Alcotest.int "pack" 3 (Hw.Disk.pack_of_handle h);
  check Alcotest.int "record" 123 (Hw.Disk.record_of_handle h)

let test_disk_emptiest () =
  let disk = Hw.Disk.create ~packs:3 ~records_per_pack:4 ~read_latency_ns:10 in
  ignore (Hw.Disk.alloc_record disk ~pack:1);
  ignore (Hw.Disk.alloc_record disk ~pack:2);
  ignore (Hw.Disk.alloc_record disk ~pack:2);
  check (Alcotest.option Alcotest.int) "emptiest but 0" (Some 1)
    (Hw.Disk.emptiest_pack disk ~except:0);
  check (Alcotest.option Alcotest.int) "emptiest overall" (Some 0)
    (Hw.Disk.emptiest_pack disk ~except:2)

let test_vtoc () =
  let disk = Hw.Disk.create ~packs:1 ~records_per_pack:4 ~read_latency_ns:10 in
  let entry =
    { Hw.Disk.uid = 99; file_map = Array.make 4 Hw.Disk.unallocated;
      is_directory = false; quota = None; aim_label = 0;
      damaged = false; is_process_state = false }
  in
  let idx = Hw.Disk.create_vtoc_entry disk ~pack:0 entry in
  let back = Hw.Disk.vtoc_entry disk ~pack:0 ~index:idx in
  check Alcotest.int "uid" 99 back.Hw.Disk.uid;
  Hw.Disk.delete_vtoc_entry disk ~pack:0 ~index:idx;
  Alcotest.check_raises "deleted" Not_found (fun () ->
      ignore (Hw.Disk.vtoc_entry disk ~pack:0 ~index:idx))

(* A length is one past the last entry that is not [unallocated]:
   zero pages and holes below the end count, trailing clears do not. *)
let test_len_pages () =
  let entry map =
    { Hw.Disk.uid = 1; file_map = map; is_directory = false; quota = None;
      aim_label = 0; damaged = false; is_process_state = false }
  in
  let u = Hw.Disk.unallocated and z = Hw.Disk.zero_page in
  List.iter
    (fun (map, len) ->
      check Alcotest.int
        (String.concat "," (List.map string_of_int map))
        len
        (Hw.Disk.len_pages (entry (Array.of_list map))))
    [ ([], 0); ([ u; u; u ], 0); ([ 7 ], 1); ([ z; u; u ], 1);
      ([ u; u; 5 ], 3); ([ 4; u; z; u ], 3); ([ u; z; u; u ], 2) ]

(* One disk with one file whose record holds [words]. *)
let fingerprint_disk words =
  let disk = Hw.Disk.create ~packs:2 ~records_per_pack:4 ~read_latency_ns:10 in
  let record = Hw.Disk.alloc_record disk ~pack:1 in
  Hw.Disk.write_record disk ~pack:1 ~record (Hw.Page_image.of_words words);
  let map = Array.make 4 Hw.Disk.unallocated in
  map.(1) <- Hw.Disk.handle ~pack:1 ~record;
  ignore
    (Hw.Disk.create_vtoc_entry disk ~pack:1
       { Hw.Disk.uid = 5; file_map = map; is_directory = false; quota = None;
         aim_label = 0; damaged = false; is_process_state = false });
  (disk, record)

(* The fingerprint reads every word a file map reaches.  [Hashtbl.hash]
   of a record's word list stops after ten meaningful values and cannot
   see word 20, which is why the suites compare disks by fingerprint. *)
let test_disk_fingerprint_every_word () =
  let words = Array.init Hw.Addr.page_size (fun i -> Hw.Word.of_int (i + 1)) in
  let changed = Array.copy words in
  changed.(20) <- Hw.Word.of_int 99;
  let a, ra = fingerprint_disk words and b, rb = fingerprint_disk changed in
  check Alcotest.bool "word 20 moves the fingerprint" false
    (Hw.Disk.fingerprint a = Hw.Disk.fingerprint b);
  check Alcotest.int "an identical disk has the same fingerprint"
    (Hw.Disk.fingerprint a)
    (Hw.Disk.fingerprint (fst (fingerprint_disk words)));
  let old_hash d r =
    Hashtbl.hash
      ( 0, 1, r,
        Hw.Page_image.to_words (Hw.Disk.read_record d ~pack:1 ~record:r)
        |> Array.to_list )
  in
  check Alcotest.int "the structural hash misses word 20" (old_hash a ra)
    (old_hash b rb)

(* ------------------------------------------------------------------ *)
(* Event queue and machine clock *)

let test_event_order () =
  let q = Hw.Event_queue.create () in
  let log = ref [] in
  Hw.Event_queue.add q ~time:30 (fun () -> log := 3 :: !log);
  Hw.Event_queue.add q ~time:10 (fun () -> log := 1 :: !log);
  Hw.Event_queue.add q ~time:10 (fun () -> log := 2 :: !log);
  let rec drain () =
    match Hw.Event_queue.pop q with
    | None -> ()
    | Some (_, h) -> h (); drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "fifo within a tick" [ 1; 2; 3 ]
    (List.rev !log)

(* The event queue's contract: pop order is exactly (time, insertion
   seq).  Drive the queue and a reference Map keyed by that pair
   through an add/pop interleaving ([Some delta] adds an event [delta]
   after the last popped instant, [None] pops) and require identical
   times, identical payloads, and an agreeing [next_time] at every
   step. *)
let event_queue_matches_model ops =
  let module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let q = Hw.Event_queue.create () in
  let model = ref M.empty in
  let cur = ref 0 in
  let seq = ref 0 in
  let ok = ref true in
  let fired = ref (-1) in
  let pop_and_compare () =
    let expected = M.min_binding_opt !model in
    (match (Hw.Event_queue.next_time q, expected) with
    | Some t, Some ((mt, _), _) when t = mt -> ()
    | None, None -> ()
    | _ -> ok := false);
    match (Hw.Event_queue.pop q, expected) with
    | Some (t, h), Some (((mt, _) as key), id) ->
        h ();
        if t <> mt || !fired <> id then ok := false;
        model := M.remove key !model;
        cur := t
    | None, None -> ()
    | _ -> ok := false
  in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Some delta ->
            let t = !cur + delta and id = !seq in
            Hw.Event_queue.add q ~time:t (fun () -> fired := id);
            model := M.add (t, id) id !model;
            incr seq
        | None -> pop_and_compare ())
    ops;
  (* Drain whatever the interleaving left behind. *)
  while !ok && not (M.is_empty !model) do
    pop_and_compare ()
  done;
  !ok && Hw.Event_queue.is_empty q

(* Deltas up to 2^21: times spread wide, few ties. *)
let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue matches reference map model" ~count:200
    QCheck.(list (option (int_bound (1 lsl 21))))
    event_queue_matches_model

(* The cases a heap can get wrong.  Deltas of 0-3 make most adds tie,
   so only the insertion seq orders them; at least 200 adds before the
   first pop grow the queue past its initial size; and a delta of 0
   after a pop adds at exactly the last popped instant. *)
let prop_event_queue_ties =
  QCheck.Test.make ~name:"event queue orders ties by insertion" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(200 -- 300) (int_bound 3))
        (list (option (int_bound 3))))
    (fun (fill, ops) ->
      event_queue_matches_model (List.map Option.some fill @ ops))

let test_event_queue_past_add () =
  let q = Hw.Event_queue.create () in
  Hw.Event_queue.add q ~time:100 (fun () -> ());
  (match Hw.Event_queue.pop q with
  | Some (100, _) -> ()
  | _ -> Alcotest.fail "expected the event at 100");
  Alcotest.check_raises "add before cursor"
    (Invalid_argument "Event_queue.add: time precedes an already-popped event")
    (fun () -> Hw.Event_queue.add q ~time:99 (fun () -> ()))

let test_machine_run () =
  let machine = Hw.Machine.create Hw.Hw_config.legacy_multics in
  let fired = ref [] in
  Hw.Machine.schedule machine ~delay:100 (fun () ->
      fired := "a" :: !fired;
      Hw.Machine.schedule machine ~delay:50 (fun () -> fired := "b" :: !fired));
  Hw.Machine.schedule machine ~delay:120 (fun () -> fired := "c" :: !fired);
  Hw.Machine.run machine;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "c"; "b" ]
    (List.rev !fired);
  check Alcotest.int "clock" 150 (Hw.Machine.now machine)

let test_machine_run_until () =
  let machine = Hw.Machine.create Hw.Hw_config.legacy_multics in
  let fired = ref 0 in
  Hw.Machine.schedule machine ~delay:10 (fun () -> incr fired);
  Hw.Machine.schedule machine ~delay:1000 (fun () -> incr fired);
  Hw.Machine.run ~until:100 machine;
  check Alcotest.int "only first" 1 !fired

let tests =
  [ Alcotest.test_case "word insert/extract" `Quick test_word_insert_extract;
    Alcotest.test_case "word mask" `Quick test_word_mask;
    qcheck prop_word_roundtrip;
    qcheck prop_word_set_bit;
    Alcotest.test_case "addr split" `Quick test_addr_split;
    qcheck prop_addr_of_page;
    qcheck prop_ptw_roundtrip;
    qcheck prop_sdw_roundtrip;
    Alcotest.test_case "sdw permits" `Quick test_sdw_permits;
    Alcotest.test_case "phys mem rw" `Quick test_phys_mem_rw;
    Alcotest.test_case "phys mem bounds" `Quick test_phys_mem_bounds;
    Alcotest.test_case "phys mem paired fill" `Quick test_phys_mem_fill_pairs;
    Alcotest.test_case "ptw precomputed words" `Quick
      test_ptw_precomputed_words;
    Alcotest.test_case "translate hit" `Quick test_translate_hit;
    Alcotest.test_case "translate sets used/modified" `Quick
      test_translate_sets_used_modified;
    Alcotest.test_case "translate missing page" `Quick test_translate_missing_page;
    Alcotest.test_case "translate missing segment" `Quick
      test_translate_missing_segment;
    Alcotest.test_case "translate bounds" `Quick test_translate_bounds;
    Alcotest.test_case "translate access" `Quick test_translate_access;
    Alcotest.test_case "quota fault bit" `Quick test_quota_fault_bit;
    Alcotest.test_case "descriptor lock bit" `Quick test_descriptor_lock_bit;
    Alcotest.test_case "dual dbr split" `Quick test_dual_dbr_split;
    Alcotest.test_case "disk alloc/full" `Quick test_disk_alloc_full;
    Alcotest.test_case "disk rw" `Quick test_disk_rw;
    Alcotest.test_case "disk handles" `Quick test_disk_handles;
    Alcotest.test_case "disk emptiest" `Quick test_disk_emptiest;
    Alcotest.test_case "vtoc" `Quick test_vtoc;
    Alcotest.test_case "vtoc length from the file map" `Quick test_len_pages;
    Alcotest.test_case "disk fingerprint reads every word" `Quick
      test_disk_fingerprint_every_word;
    Alcotest.test_case "event order" `Quick test_event_order;
    qcheck prop_event_queue_model;
    qcheck prop_event_queue_ties;
    Alcotest.test_case "event queue rejects past add" `Quick
      test_event_queue_past_add;
    Alcotest.test_case "machine run" `Quick test_machine_run;
    Alcotest.test_case "machine run until" `Quick test_machine_run_until ]
