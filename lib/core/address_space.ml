module Hw = Multics_hw

type space = {
  dseg : Core_segment.region;
  mutable connected : int list;  (* segnos with live SDWs *)
}

type t = {
  machine : Hw.Machine.t;
  acct : Meter.account;
  segment : Segment.t;
  known : Known_segment.t;
  system_region : Core_segment.region;
  system_segnos : int;
  pool : Core_segment.region array;
  mutable pool_free : int list;
  spaces : (int, space * int) Hashtbl.t;  (* proc -> (space, pool slot) *)
}

let name = Registry.address_space_manager

(* The invalid SDW's two words, encoded once: a fresh descriptor
   segment fills every one of its slots with them. *)
let invalid_w0, invalid_w1 = Hw.Sdw.encode Hw.Sdw.invalid
let () = assert (Hw.Sdw.words = 2)

let write_invalid mem a =
  Hw.Phys_mem.write mem a invalid_w0;
  Hw.Phys_mem.write mem (a + 1) invalid_w1

let entry t ns =
  Meter.charge t.acct (Registry.language name)
    (Cost.kernel_call + ns)

let create ~machine ~meter ~core ~segment ~known ~max_spaces =
  assert (max_spaces > 0);
  let system_segnos =
    machine.Hw.Machine.config.Hw.Hw_config.system_segno_split
  in
  let system_region =
    Core_segment.alloc core ~name:"system_descriptor_table"
      ~words:(system_segnos * Hw.Sdw.words)
  in
  let dseg_words = Hw.Addr.max_segments * Hw.Sdw.words in
  let pool =
    Array.init max_spaces (fun i ->
        Core_segment.alloc core
          ~name:(Printf.sprintf "descriptor_segment_%d" i)
          ~words:dseg_words)
  in
  { machine; acct = Meter.account meter name; segment; known; system_region;
    system_segnos; pool;
    pool_free = List.init max_spaces (fun i -> i);
    spaces = Hashtbl.create 16 }

let system_table t =
  { Hw.Cpu.base = Core_segment.abs_of t.system_region 0;
    n_segments = t.system_segnos }

let install_system_dbr t (cpu : Hw.Cpu.t) =
  cpu.Hw.Cpu.system_dbr <- Some (system_table t)

let create_space t ~proc =
  entry t Cost.directory_entry_op;
  if Hashtbl.mem t.spaces proc then
    invalid_arg "Address_space.create_space: process already has a space";
  match t.pool_free with
  | [] -> failwith "Address_space.create_space: descriptor-segment pool empty"
  | slot :: rest ->
      t.pool_free <- rest;
      let dseg = t.pool.(slot) in
      let mem = t.machine.Hw.Machine.mem in
      (* Invalidate every SDW: one fill over the whole region, whose
         last word is checked to lie inside it. *)
      ignore
        (Core_segment.abs_of dseg ((Hw.Addr.max_segments * Hw.Sdw.words) - 1));
      Hw.Phys_mem.fill_pairs mem (Core_segment.abs_of dseg 0)
        ~pairs:Hw.Addr.max_segments invalid_w0 invalid_w1;
      Hashtbl.replace t.spaces proc ({ dseg; connected = [] }, slot)

let space t proc =
  match Hashtbl.find_opt t.spaces proc with
  | Some (s, _) -> s
  | None ->
      invalid_arg (Printf.sprintf "Address_space: process %d has no space" proc)

let sdw_abs t proc segno =
  Core_segment.abs_of (space t proc).dseg (segno * Hw.Sdw.words)

let dbr_of t ~proc =
  { Hw.Cpu.base = Core_segment.abs_of (space t proc).dseg 0;
    n_segments = Hw.Addr.max_segments }

let disconnect_segno t proc segno =
  let s = space t proc in
  if List.mem segno s.connected then begin
    let sdw_abs = sdw_abs t proc segno in
    (match Known_segment.info t.known ~proc ~segno with
    | Some e -> (
        match Segment.find_active t.segment ~uid:e.Known_segment.ke_uid with
        | Some slot ->
            Segment.unregister_connection t.segment ~slot ~sdw_abs
        | None -> ())
    | None -> ());
    write_invalid t.machine.Hw.Machine.mem sdw_abs;
    s.connected <- List.filter (fun n -> n <> segno) s.connected;
    (* The severed SDW may be cached in an associative memory. *)
    Hw.Machine.flush_all_tlbs t.machine;
    Multics_obs.Sink.count (Hw.Machine.obs t.machine) "sdw_am:disconnect_flush"
  end

let destroy_space t ~proc =
  entry t Cost.directory_entry_op;
  let s = space t proc in
  List.iter (fun segno -> disconnect_segno t proc segno) s.connected;
  (match Hashtbl.find_opt t.spaces proc with
  | Some (_, slot) -> t.pool_free <- slot :: t.pool_free
  | None -> ());
  Hashtbl.remove t.spaces proc

let handle_missing_segment t ~proc ~segno =
  entry t Cost.fault_entry;
  if segno < t.system_segnos then `Error "missing system segment"
  else
    match Known_segment.ensure_active t.known ~proc ~segno with
    | Error `Not_known -> `Error "segment fault on unknown segment number"
    | Error `Gone -> `Error "segment fault on deleted segment"
    | Error `No_slot -> `Error "active segment table full"
    | Ok (slot, e) ->
        let mode = e.Known_segment.ke_mode in
        let ring = e.Known_segment.ke_ring in
        let sdw =
          Hw.Sdw.make
            ~page_table:(Segment.pt_base t.segment ~slot)
            ~length:(Segment.pt_words t.segment)
            ~read:mode.Acl.read ~write:mode.Acl.write ~execute:mode.Acl.execute
            ~r1:ring ~r2:ring ~r3:ring
        in
        let sdw_abs = sdw_abs t proc segno in
        Hw.Sdw.write_at t.machine.Hw.Machine.mem sdw_abs sdw;
        Segment.register_connection t.segment ~slot ~sdw_abs;
        let s = space t proc in
        if not (List.mem segno s.connected) then
          s.connected <- segno :: s.connected;
        `Retry

let disconnect t ~proc:p ~segno =
  entry t Cost.directory_entry_op;
  disconnect_segno t p segno
