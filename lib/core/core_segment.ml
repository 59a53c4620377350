module Hw = Multics_hw

type region = { region_name : string; base : Hw.Addr.abs; words : int }

type t = {
  machine : Hw.Machine.t;
  acct : Meter.account;
  pool_base : Hw.Addr.abs;
  pool_words : int;
  first_frame : int;
  mutable next : int;  (* offset of first free word in the pool *)
  mutable is_frozen : bool;
}

let name = Registry.core_segment_manager

let create ~machine ~meter ~reserved_frames =
  let total = Hw.Phys_mem.frames machine.Hw.Machine.mem in
  if reserved_frames <= 0 || reserved_frames >= total then
    invalid_arg "Core_segment.create: bad reservation";
  let first_frame = total - reserved_frames in
  { machine; acct = Meter.account meter name;
    pool_base = Hw.Addr.frame_base first_frame;
    pool_words = reserved_frames * Hw.Addr.page_size;
    first_frame; next = 0; is_frozen = false }

let first_reserved_frame t = t.first_frame

let alloc t ~name:region_name ~words =
  if t.is_frozen then
    failwith "Core_segment.alloc: allocator frozen after initialisation";
  if words <= 0 then invalid_arg "Core_segment.alloc: words must be positive";
  if t.next + words > t.pool_words then
    failwith
      (Printf.sprintf "Core_segment.alloc: pool exhausted allocating %S" region_name);
  let region = { region_name; base = t.pool_base + t.next; words } in
  t.next <- t.next + words;
  region

let freeze t = t.is_frozen <- true
let frozen t = t.is_frozen

let check region i =
  if i < 0 || i >= region.words then
    invalid_arg
      (Printf.sprintf "Core_segment: offset %d outside %S (%d words)" i
         region.region_name region.words)

let read t region i =
  check region i;
  Meter.charge t.acct Cost.Pl1
    t.machine.Hw.Machine.config.Hw.Hw_config.mem_access_cost;
  Hw.Phys_mem.read t.machine.Hw.Machine.mem (region.base + i)

let write t region i w =
  check region i;
  Meter.charge t.acct Cost.Pl1
    t.machine.Hw.Machine.config.Hw.Hw_config.mem_access_cost;
  Hw.Phys_mem.write t.machine.Hw.Machine.mem (region.base + i) w

let abs_of region i =
  check region i;
  region.base + i
