module Hw = Multics_hw

type handle = int

let no_cell = -1

type cell = {
  mutable home_pack : int;
  mutable home_index : int;
  mutable limit : int;
  mutable used : int;
  mutable live : bool;
}

type t = {
  acct : Meter.account;
  core : Core_segment.t;
  volume : Volume.t;
  cache_region : Core_segment.region;  (* 2 words per cell: limit, used *)
  cells : cell array;
  mutable refusals : int;
}

let name = Registry.quota_cell_manager

let entry t base =
  Meter.charge t.acct (Registry.language name)
    (Cost.kernel_call + base)

let create ~meter ~core ~volume ~max_cells =
  assert (max_cells > 0);
  let cache_region =
    Core_segment.alloc core ~name:"quota_cell_cache" ~words:(2 * max_cells)
  in
  { acct = Meter.account meter name; core; volume; cache_region;
    cells =
      Array.init max_cells (fun _ ->
          { home_pack = 0; home_index = 0; limit = 0; used = 0; live = false });
    refusals = 0 }

let get t h =
  if h = no_cell then invalid_arg "Quota_cell: operation needs a real cell";
  if h < 0 || h >= Array.length t.cells || not t.cells.(h).live then
    invalid_arg (Printf.sprintf "Quota_cell: stale handle %d" h);
  t.cells.(h)

let mirror t h =
  (* Keep the core-segment image in step so the cache is "really" in
     wired memory. *)
  let c = t.cells.(h) in
  Core_segment.write t.core t.cache_region (2 * h) c.limit;
  Core_segment.write t.core t.cache_region ((2 * h) + 1) c.used

let register t ~pack ~vtoc_index ~limit ~used =
  entry t Cost.quota_check;
  let rec find i =
    if i >= Array.length t.cells then
      failwith "Quota_cell.register: cell cache full"
    else if not t.cells.(i).live then i
    else find (i + 1)
  in
  (* Re-registration of an already-cached cell returns the existing
     handle. *)
  let existing = ref None in
  Array.iteri
    (fun i c ->
      if c.live && c.home_pack = pack && c.home_index = vtoc_index then
        existing := Some i)
    t.cells;
  match !existing with
  | Some h -> h
  | None ->
      let h = find 0 in
      let c = t.cells.(h) in
      c.home_pack <- pack;
      c.home_index <- vtoc_index;
      c.limit <- limit;
      c.used <- used;
      c.live <- true;
      mirror t h;
      (* Write through to the VTOC at registration: the cell lives in
         the VTOC entry, core is only a cache.  A crash before the
         first sync must still find the cell on disk (the salvager
         recounts [used]; without this the next incarnation cannot
         even tell the directory had a quota). *)
      (match
         Volume.vtoc t.volume ~pack ~index:vtoc_index
       with
      | vtoc ->
          if vtoc.Hw.Disk.quota = None then
            vtoc.Hw.Disk.quota <- Some { Hw.Disk.limit; used }
      | exception Not_found -> ());
      h

let lookup t ~pack ~vtoc_index =
  let found = ref None in
  Array.iteri
    (fun i c ->
      if c.live && c.home_pack = pack && c.home_index = vtoc_index then
        found := Some i)
    t.cells;
  !found

let charge t h pages =
  entry t Cost.quota_check;
  if h = no_cell then Ok ()
  else
    let c = get t h in
    if c.used + pages > c.limit then begin
      t.refusals <- t.refusals + 1;
      Error `Over_quota
    end
    else begin
      c.used <- c.used + pages;
      mirror t h;
      Ok ()
    end

let uncharge t h pages =
  entry t Cost.quota_check;
  if h <> no_cell then begin
    let c = get t h in
    c.used <- max 0 (c.used - pages);
    mirror t h
  end

let used t h = (get t h).used
let limit t h = (get t h).limit

let move_quota t ~from ~to_ pages =
  entry t (2 * Cost.quota_check);
  let src = get t from and dst = get t to_ in
  if src.limit - pages < src.used then begin
    t.refusals <- t.refusals + 1;
    Error `Over_quota
  end
  else begin
    src.limit <- src.limit - pages;
    dst.limit <- dst.limit + pages;
    mirror t from;
    mirror t to_;
    Ok ()
  end

let sync t h =
  entry t Cost.vtoc_write;
  let c = get t h in
  let vtoc =
    Volume.vtoc t.volume ~pack:c.home_pack ~index:c.home_index
  in
  vtoc.Hw.Disk.quota <- Some { Hw.Disk.limit = c.limit; used = c.used }

let unregister t h =
  sync t h;
  let c = get t h in
  c.live <- false

let relocated t h ~pack ~vtoc_index =
  let c = get t h in
  c.home_pack <- pack;
  c.home_index <- vtoc_index

let registered t =
  Array.to_list t.cells
  |> List.mapi (fun i c -> (i, c))
  |> List.filter_map (fun (i, c) ->
         if c.live then Some (i, c.used, c.limit) else None)

let over_quota_refusals t = t.refusals
